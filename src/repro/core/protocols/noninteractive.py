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
        self._operation = operation
        self._channel = channel
        self._started = False
        self._precomputed: bytes | None = None

    def do_round(self) -> list[ProtocolMessage]:
        if self._started:
            raise ProtocolError(
                f"instance {self.instance_id}: non-interactive protocol "
                "has a single round"
            )
        self._started = True
        payload = self._operation.create_own_share()
        self._settle_own()
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
        self._operation.accept_share(message.payload)
        self._operation.settle()

    def _settle_own(self) -> None:
        """Own share stored: if it completed a quorum of shares that peers
        sent ahead of it, judge them now.  Culprits are evicted inside
        ``settle``; the round itself must not fail on their account."""
        try:
            self._operation.settle()
        except InvalidShareError:
            pass

    # -- worker-pool offload (repro.workers) ---------------------------------
    #
    # The one-round protocol is the ideal offload target: its round is a
    # single share creation and its updates are pure share verifications,
    # both stateless given the operation spec.  The imports are lazy so
    # that core.protocols never needs repro.workers unless a pool exists.

    @property
    def supports_offload(self) -> bool:
        return self._operation.offload_spec() is not None

    def offload_round(self):
        if self._started:
            return None
        spec = self._operation.offload_spec(include_share=True)
        if spec is None:
            return None
        from ...workers import tasks

        return (f"{spec['scheme']}:create_share", tasks.create_share, (spec,))

    def apply_round(self, payload: bytes) -> list[ProtocolMessage]:
        if self._started:
            raise ProtocolError(
                f"instance {self.instance_id}: non-interactive protocol "
                "has a single round"
            )
        self._started = True
        self._operation.admit_own(payload)
        self._settle_own()
        return [
            ProtocolMessage(
                instance_id=self.instance_id,
                sender=self.party_id,
                round=0,
                channel=self._channel,
                payload=payload,
            )
        ]

    # -- precompute pipeline (repro.core.orchestration.precompute) -----------
    #
    # The single round is a pure function of the request, so its payload
    # can be created ahead of demand and staged here; consuming it is
    # exactly the offload apply path (admit the pre-made own share and
    # broadcast it), with zero crypto at request time.

    @property
    def supports_precompute(self) -> bool:
        return True

    def stage_precomputed(self, entry) -> None:
        if self._started:
            raise ProtocolError(
                f"instance {self.instance_id}: cannot stage a precomputed "
                "share after the round ran"
            )
        self._precomputed = bytes(entry)

    def consume_precomputed(self) -> list[ProtocolMessage] | None:
        if self._precomputed is None or self._started:
            return None
        payload, self._precomputed = self._precomputed, None
        return self.apply_round(payload)

    def offload_verify(self, payloads: list[bytes]):
        if self._operation.admits_unverified:
            return None  # nothing to verify per share: admit inline
        spec = self._operation.offload_spec()
        if spec is None:
            return None
        from ...workers import tasks

        return (
            f"{spec['scheme']}:verify_shares",
            tasks.verify_shares,
            (spec, list(payloads)),
        )

    def admit_verified(self, payload: bytes) -> None:
        self._operation.admit_verified(payload)

    def is_ready_for_next_round(self) -> bool:
        return False  # single-round protocol

    def progress(self) -> tuple[int, int]:
        return (
            self._operation.share_count,
            self._operation.threshold + 1,
        )

    def is_ready_to_finalize(self) -> bool:
        return self._started and self._operation.have_quorum

    def finalize(self) -> bytes:
        if not self.is_ready_to_finalize():
            raise ProtocolError(
                f"instance {self.instance_id}: finalize before quorum "
                f"({self._operation.share_count}/{self._operation.threshold + 1})"
            )
        self.mark_finalized()
        return self._operation.result()
