"""FROST (KG20) as a two-round TRI protocol.

"FROST is the first multi-round protocol to have been implemented in
Thetacrypt, and served as a model and test case for the proposed design"
(§3.5).  Round 0 exchanges nonce commitments; round 1 exchanges signature
shares.  Following the paper's evaluation semantics, the signing group is
the whole Θ-network and both rounds wait for *all* members (which is what
gives KG20 its distinctive fairness profile in Table 4).

The precomputation mode of the paper is supported through
:class:`FrostPrecomputationPool`: a batch of commitment lists exchanged in
advance (via :class:`FrostPrecomputeProtocol`) lets the signing protocol
start directly in round 1, needing a single round of interaction online.
"""

from __future__ import annotations

from collections import deque

from ...errors import (
    CryptoError,
    InvalidShareError,
    ProtocolAbortedError,
    ProtocolError,
)
from ...schemes import kg20
from ..messages import Channel, ProtocolMessage
from ..tri import ThresholdRoundProtocol


class FrostPrecomputationPool:
    """Per-node store of precomputed nonces and everyone's commitments.

    Entries are consumed in FIFO order; all nodes must consume in the same
    request order for indices to line up, which holds when signing requests
    are ordered by the TOB channel (documented requirement, as in FROST's
    batch preprocessing).
    """

    def __init__(self) -> None:
        self._own: deque[kg20.NoncePair] = deque()
        self._commitment_lists: deque[list[kg20.NonceCommitment]] = deque()
        #: Batches added so far: every node runs every preprocessing round,
        #: so this names the next one identically cluster-wide — and is as
        #: volatile as the nonces themselves.
        self.batches = 0

    def add_batch(
        self,
        own_nonces: list[kg20.NoncePair],
        commitment_lists: list[list[kg20.NonceCommitment]],
    ) -> None:
        if len(own_nonces) != len(commitment_lists):
            raise ProtocolError("nonce/commitment batch length mismatch")
        self._own.extend(own_nonces)
        self._commitment_lists.extend(commitment_lists)
        self.batches += 1

    def pop(self) -> tuple[kg20.NoncePair, list[kg20.NonceCommitment]]:
        if not self._own:
            raise ProtocolError("precomputation pool exhausted")
        return self._own.popleft(), self._commitment_lists.popleft()

    @property
    def available(self) -> int:
        return len(self._own)


class FrostProtocol(ThresholdRoundProtocol):
    """One FROST signing run at one party."""

    def __init__(
        self,
        instance_id: str,
        key_share: kg20.Kg20KeyShare,
        message: bytes,
        channel: Channel = Channel.P2P,
        pool: FrostPrecomputationPool | None = None,
    ):
        super().__init__(instance_id, key_share.id)
        self._scheme = kg20.Kg20SignatureScheme()
        self._key_share = key_share
        self._message = message
        self._channel = channel
        self._parties = key_share.public.parties
        self._nonce: kg20.NoncePair | None = None
        self._commitments: dict[int, kg20.NonceCommitment] = {}
        self._share_payloads: dict[int, bytes] = {}
        self._own_share: kg20.Kg20SignatureShare | None = None
        self._signing_round_done = False
        if pool is not None and pool.available:
            # Precomputed mode: the commitments were agreed by a prior
            # preprocessing round, so signing starts directly in round 1.
            self._nonce, commitment_list = pool.pop()
            self._commitments = {c.id: c for c in commitment_list}
            self.round = 1

    # -- TRI implementation --------------------------------------------------

    def do_round(self) -> list[ProtocolMessage]:
        if self.round == 0:
            self._nonce, own_commitment = self._scheme.commit(self._key_share)
            self._commitments[self.party_id] = own_commitment
            return [
                ProtocolMessage(
                    self.instance_id,
                    self.party_id,
                    round=0,
                    channel=self._channel,
                    payload=own_commitment.to_bytes(),
                )
            ]
        if self.round == 1 and not self._signing_round_done:
            self._signing_round_done = True
            commitment_list = list(self._commitments.values())
            self._own_share = self._scheme.sign_round(
                self._key_share, self._message, self._nonce, commitment_list
            )
            self._share_payloads[self.party_id] = self._own_share.to_bytes()
            return [
                ProtocolMessage(
                    self.instance_id,
                    self.party_id,
                    round=1,
                    channel=self._channel,
                    payload=self._own_share.to_bytes(),
                )
            ]
        raise ProtocolError(f"FROST has no round {self.round}")

    def update(self, message: ProtocolMessage) -> None:
        if message.sender == self.party_id:
            return
        if message.round == 0:
            commitment = kg20.NonceCommitment.from_bytes(
                message.payload, self._key_share.public.group
            )
            if commitment.id != message.sender:
                raise ProtocolAbortedError(
                    f"commitment id {commitment.id} does not match "
                    f"sender {message.sender}"
                )
            self._commitments[commitment.id] = commitment
        elif message.round == 1:
            # Stored raw and judged at finalize (through the combined
            # signature) so that late round-0 state does not block
            # buffering; FROST is not robust anyway.
            self._share_payloads[message.sender] = message.payload
        else:
            raise InvalidShareError(f"unexpected FROST round {message.round}")

    def is_ready_for_next_round(self) -> bool:
        return (
            self.round == 0
            and not self._signing_round_done
            and len(self._commitments) == self._parties
        )

    def is_ready_to_finalize(self) -> bool:
        return (
            self._signing_round_done
            and len(self._share_payloads) == self._parties
        )

    def progress(self) -> tuple[int, int]:
        if self.round == 0:
            return len(self._commitments), self._parties
        return len(self._share_payloads), self._parties

    def finalize(self) -> bytes:
        if not self.is_ready_to_finalize():
            raise ProtocolError("FROST finalize before all shares arrived")
        public_key = self._key_share.public
        commitment_list = list(self._commitments.values())
        shares = []
        for sender, payload in sorted(self._share_payloads.items()):
            share = kg20.Kg20SignatureShare.from_bytes(payload)
            if share.id != sender:
                raise ProtocolAbortedError(
                    f"share id {share.id} does not match sender {sender}"
                )
            shares.append(share)
        try:
            signature = self._scheme.combine(
                public_key, self._message, shares, commitment_list
            )
        except CryptoError:
            # The Schnorr check on the sum failed.  Identify the deviating
            # parties: FROST aborts but names them.
            for share in shares:
                if share.id != self.party_id:
                    self._scheme.verify_signature_share(
                        public_key, self._message, share, commitment_list
                    )
            raise
        self.mark_finalized()
        return signature.to_bytes()


class FrostPrecomputeProtocol(ThresholdRoundProtocol):
    """One-round batch exchange of nonce commitments (FROST preprocessing).

    Each party broadcasts ``batch_size`` commitments; once everyone's batch
    arrived, finalize() fills the supplied pool and returns the batch size.
    """

    def __init__(
        self,
        instance_id: str,
        key_share: kg20.Kg20KeyShare,
        batch_size: int,
        pool: FrostPrecomputationPool,
        channel: Channel = Channel.P2P,
    ):
        super().__init__(instance_id, key_share.id)
        self._scheme = kg20.Kg20SignatureScheme()
        self._key_share = key_share
        self._batch_size = batch_size
        self._pool = pool
        self._channel = channel
        self._parties = key_share.public.parties
        self._own: list[tuple[kg20.NoncePair, kg20.NonceCommitment]] = []
        self._batches: dict[int, list[kg20.NonceCommitment]] = {}
        self._started = False

    def do_round(self) -> list[ProtocolMessage]:
        if self._started:
            raise ProtocolError("precompute protocol has a single round")
        self._started = True
        self._own = self._scheme.precompute(self._key_share, self._batch_size)
        self._batches[self.party_id] = [c for _, c in self._own]
        payload = b"".join(
            len(c.to_bytes()).to_bytes(4, "big") + c.to_bytes()
            for _, c in self._own
        )
        return [
            ProtocolMessage(
                self.instance_id, self.party_id, 0, self._channel, payload
            )
        ]

    def update(self, message: ProtocolMessage) -> None:
        if message.sender == self.party_id:
            return
        batch = []
        data = message.payload
        offset = 0
        group = self._key_share.public.group
        while offset < len(data):
            length = int.from_bytes(data[offset : offset + 4], "big")
            offset += 4
            batch.append(
                kg20.NonceCommitment.from_bytes(data[offset : offset + length], group)
            )
            offset += length
        if len(batch) != self._batch_size:
            raise ProtocolAbortedError(
                f"party {message.sender} sent a batch of {len(batch)}, "
                f"expected {self._batch_size}"
            )
        self._batches[message.sender] = batch

    def is_ready_for_next_round(self) -> bool:
        return False

    def is_ready_to_finalize(self) -> bool:
        return self._started and len(self._batches) == self._parties

    def progress(self) -> tuple[int, int]:
        return len(self._batches), self._parties

    def finalize(self) -> bytes:
        if not self.is_ready_to_finalize():
            raise ProtocolError("precompute finalize before all batches arrived")
        commitment_lists = []
        for index in range(self._batch_size):
            commitment_lists.append(
                [self._batches[party][index] for party in sorted(self._batches)]
            )
        self._pool.add_batch([n for n, _ in self._own], commitment_lists)
        self.mark_finalized()
        return self._batch_size.to_bytes(4, "big")
