"""The Threshold Round Interface (TRI).

The paper's central abstraction (§3.5): every threshold protocol — whatever
its number of rounds — is a state machine driven by exactly five functions.
A *round* is "the local computation performed by one party in response to
receiving a message over the network until the party produces a result or a
message that may be sent to other parties".

The :class:`~repro.core.orchestration.executor.ProtocolExecutor` drives any
implementation of this interface without knowing the scheme behind it; this
is what lets new protocols plug in without touching the management code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import ProtocolError
from .messages import ProtocolMessage


class ThresholdRoundProtocol(ABC):
    """State machine of one protocol instance at one party."""

    #: Globally unique identifier of the protocol instance; all parties
    #: derive the same id for the same request so messages route correctly.
    instance_id: str
    #: This party's 1-based id.
    party_id: int

    def __init__(self, instance_id: str, party_id: int):
        self.instance_id = instance_id
        self.party_id = party_id
        self.round = 0
        self._finalized = False

    @abstractmethod
    def do_round(self) -> list[ProtocolMessage]:
        """Perform the local computation of the current round.

        Returns the protocol messages to forward to the other parties (each
        tagged with its transport channel).  Called once at protocol start
        and once more each time :meth:`is_ready_for_next_round` fires.
        """

    @abstractmethod
    def update(self, message: ProtocolMessage) -> None:
        """Record a message received from the network and update state.

        Invalid messages (bad proofs, bogus shares) must be rejected here by
        raising a :class:`~repro.errors.CryptoError` subclass; the executor
        logs and drops them so a faulty party cannot stall a robust scheme.
        """

    @abstractmethod
    def is_ready_for_next_round(self) -> bool:
        """True when enough valid messages arrived to advance a round."""

    @abstractmethod
    def is_ready_to_finalize(self) -> bool:
        """True when the termination condition holds."""

    @abstractmethod
    def finalize(self) -> bytes:
        """Compute the final result locally (e.g. assemble partial shares)."""

    @abstractmethod
    def progress(self) -> tuple[int, int]:
        """(collected, needed) for the current round.

        Lets the executor classify a timeout as ``insufficient_shares``
        (quorum never formed) versus a plain ``timeout`` (stalled despite
        apparent progress), and skip its re-broadcast once a quorum is in.
        """

    # -- shared bookkeeping --------------------------------------------------

    def advance_round(self) -> None:
        """Move to the next round (executor bookkeeping)."""
        self.round += 1

    def mark_finalized(self) -> None:
        if self._finalized:
            raise ProtocolError(f"instance {self.instance_id} finalized twice")
        self._finalized = True

    @property
    def finalized(self) -> bool:
        return self._finalized
