"""The generic one-round protocol for non-interactive threshold schemes.

All five non-interactive schemes (SG02, BZ03, SH00, BLS04, CKS05) follow the
same pattern: in the single round each party computes its partial result and
sends it to every peer over P2P; upon collecting t+1 valid partial results
(its own included) each party finalizes by combining them locally.  The
scheme specifics live entirely in the :class:`ShareOperation` adapter —
including *when* a share is verified: on arrival, or (for adapters whose
result verifies itself) once, through the combined result, the moment the
quorum forms.
"""

from __future__ import annotations

from ...errors import InvalidShareError, ProtocolError
from ..messages import Channel, ProtocolMessage
from ..tri import ThresholdRoundProtocol
from .operations import ShareOperation


class NonInteractiveProtocol(ThresholdRoundProtocol):
    """TRI wrapper around a single :class:`ShareOperation`."""

    def __init__(
        self,
        instance_id: str,
        party_id: int,
        operation: ShareOperation,
        channel: Channel = Channel.P2P,
    ):
        super().__init__(instance_id, party_id)
        #: The adapter this protocol wraps.  Not part of the TRI: the
        #: executor never reads it.
        self.operation = operation
        self._channel = channel
        self._started = False

    def do_round(self) -> list[ProtocolMessage]:
        if self._started:
            raise ProtocolError(
                f"instance {self.instance_id}: non-interactive protocol "
                "has a single round"
            )
        self._started = True
        payload = self.operation.create_own_share()
        try:
            # The own share may complete a quorum of shares peers sent
            # ahead of it: judge them now.  Culprits are evicted inside
            # settle(); the round itself must not fail on their account.
            self.operation.settle()
        except InvalidShareError:
            pass
        return [
            ProtocolMessage(
                instance_id=self.instance_id,
                sender=self.party_id,
                round=0,
                channel=self._channel,
                payload=payload,
            )
        ]

    def update(self, message: ProtocolMessage) -> None:
        if message.sender == self.party_id:
            return  # our own broadcast echoed back
        self.operation.accept_share(message.payload)
        self.operation.settle()

    def is_ready_for_next_round(self) -> bool:
        return False  # single-round protocol

    def progress(self) -> tuple[int, int]:
        return (
            self.operation.share_count,
            self.operation.threshold + 1,
        )

    def is_ready_to_finalize(self) -> bool:
        return self._started and self.operation.have_quorum

    def finalize(self) -> bytes:
        if not self.is_ready_to_finalize():
            raise ProtocolError(
                f"instance {self.instance_id}: finalize before quorum "
                f"({self.operation.share_count}/{self.operation.threshold + 1})"
            )
        self.mark_finalized()
        return self.operation.result()
