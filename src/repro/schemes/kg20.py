"""KG20 — FROST: flexible round-optimized Schnorr threshold signatures.

The only *interactive* scheme in the suite (Table 3: two communication
rounds, O(n²) communication): parties first exchange nonce commitments
(D_i = g^{d_i}, E_i = g^{e_i}), then produce signature shares bound to the
full commitment list through per-party binding factors ρ_i.  The assembled
signature (R, z) is a plain Schnorr signature verifying against the group
key Y.

Like the original, this implementation supports a *precomputation* phase
producing a batch of nonce pairs so that online signing needs a single round
(§3.5).  FROST is **not robust**: a misbehaving participant makes the run
abort (we detect the culprit via share verification and raise
:class:`~repro.errors.ProtocolAbortedError` at the protocol layer).

Signing-group semantics follow the paper's evaluation: the signing group is
fixed a priori and the protocol waits for *all* of its members (§4.5 —
"the protocol will wait for the contributions of all nodes in the apriori
defined group").
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import (
    ConfigurationError,
    InvalidShareError,
    InvalidSignatureError,
    SerializationError,
)
from ..groups.base import Group, GroupElement
from ..groups.precompute import fixed_pow
from ..groups.registry import get_group
from ..mathutils.lagrange import lagrange_coefficients_at_zero
from ..serialization import Reader, encode_bytes, encode_int, encode_str
from ..sharing.shamir import share_secret
from .base import SCHEME_TABLE, ThresholdSignature

_RHO_DOMAIN = b"repro-kg20-binding"
_CHALLENGE_DOMAIN = b"repro-kg20-challenge"


@dataclass(frozen=True)
class Kg20PublicKey:
    """Group key Y = g^x plus verification keys Y_i = g^{x_i}."""

    group_name: str
    threshold: int
    parties: int
    y: GroupElement
    verification_keys: tuple[GroupElement, ...]

    @property
    def group(self) -> Group:
        return get_group(self.group_name)

    def verification_key(self, party_id: int) -> GroupElement:
        return self.verification_keys[party_id - 1]

    def to_bytes(self) -> bytes:
        return (
            encode_str(self.group_name)
            + encode_int(self.threshold)
            + encode_int(self.parties)
            + encode_bytes(self.y.to_bytes())
            + b"".join(encode_bytes(v.to_bytes()) for v in self.verification_keys)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Kg20PublicKey":
        reader = Reader(data)
        group_name = reader.read_str()
        threshold = reader.read_int()
        parties = reader.read_int()
        try:
            group = get_group(group_name)
        except ConfigurationError as exc:
            raise SerializationError(str(exc)) from exc
        y = group.element_from_bytes(reader.read_bytes())
        keys = tuple(
            group.element_from_bytes(reader.read_bytes()) for _ in range(parties)
        )
        reader.finish()
        return Kg20PublicKey(group_name, threshold, parties, y, keys)


@dataclass(frozen=True)
class Kg20KeyShare:
    """Party i's long-lived signing share x_i."""

    id: int
    value: int
    public: Kg20PublicKey


@dataclass(frozen=True)
class NoncePair:
    """Secret nonces (d, e); single use, consumed by one signing run."""

    d: int
    e: int


@dataclass(frozen=True)
class NonceCommitment:
    """Round-1 message: (D_i, E_i) = (g^{d_i}, g^{e_i})."""

    id: int
    big_d: GroupElement
    big_e: GroupElement

    def to_bytes(self) -> bytes:
        return (
            encode_int(self.id)
            + encode_bytes(self.big_d.to_bytes())
            + encode_bytes(self.big_e.to_bytes())
        )

    @staticmethod
    def from_bytes(data: bytes, group: Group) -> "NonceCommitment":
        reader = Reader(data)
        commitment = NonceCommitment(
            reader.read_int(),
            group.element_from_bytes(reader.read_bytes()),
            group.element_from_bytes(reader.read_bytes()),
        )
        reader.finish()
        return commitment


@dataclass(frozen=True)
class Kg20SignatureShare:
    """Round-2 message: z_i = d_i + e_i·ρ_i + λ_i·x_i·c."""

    id: int
    z: int

    def to_bytes(self) -> bytes:
        return encode_int(self.id) + encode_int(self.z)

    @staticmethod
    def from_bytes(data: bytes) -> "Kg20SignatureShare":
        reader = Reader(data)
        share = Kg20SignatureShare(reader.read_int(), reader.read_int())
        reader.finish()
        return share


@dataclass(frozen=True)
class Kg20Signature:
    """An ordinary Schnorr signature (R, z) under the group key."""

    r: GroupElement
    z: int

    def to_bytes(self) -> bytes:
        return encode_bytes(self.r.to_bytes()) + encode_int(self.z)

    @staticmethod
    def from_bytes(data: bytes, group: Group) -> "Kg20Signature":
        reader = Reader(data)
        signature = Kg20Signature(
            group.element_from_bytes(reader.read_bytes()), reader.read_int()
        )
        reader.finish()
        return signature


def keygen(
    threshold: int, parties: int, group_name: str = "ed25519"
) -> tuple[Kg20PublicKey, list[Kg20KeyShare]]:
    """Trusted-dealer key generation for FROST."""
    group = get_group(group_name)
    x = group.random_scalar()
    shares = share_secret(x, threshold, parties, group.order)
    public = Kg20PublicKey(
        group_name,
        threshold,
        parties,
        fixed_pow(group.generator(), x),
        tuple(fixed_pow(group.generator(), s.value) for s in shares),
    )
    return public, [Kg20KeyShare(s.id, s.value, public) for s in shares]


def _sorted_commitments(
    commitments: Sequence[NonceCommitment],
) -> list[NonceCommitment]:
    ordered = sorted(commitments, key=lambda c: c.id)
    ids = [c.id for c in ordered]
    if len(set(ids)) != len(ids):
        raise InvalidShareError("duplicate ids in commitment list")
    return ordered


def _commitment_transcript(
    message: bytes, commitments: Sequence[NonceCommitment]
) -> bytes:
    transcript = encode_bytes(message)
    for commitment in _sorted_commitments(commitments):
        transcript += commitment.to_bytes()
    return transcript


class Kg20SignatureScheme(ThresholdSignature):
    """FROST against the :class:`ThresholdSignature` interface.

    The generic ``partial_sign`` entry point cannot be used directly — FROST
    signing needs the round-1 commitment list — so it raises and callers use
    the explicit two-round API (:meth:`commit`, :meth:`sign_round`).
    """

    info = SCHEME_TABLE["kg20"]

    # -- round 1 -----------------------------------------------------------

    def commit(self, key_share: Kg20KeyShare) -> tuple[NoncePair, NonceCommitment]:
        """Generate one single-use nonce pair and its public commitment."""
        group = key_share.public.group
        d = group.random_scalar()
        e = group.random_scalar()
        return NoncePair(d, e), NonceCommitment(
            key_share.id,
            fixed_pow(group.generator(), d),
            fixed_pow(group.generator(), e),
        )

    def precompute(
        self, key_share: Kg20KeyShare, count: int
    ) -> list[tuple[NoncePair, NonceCommitment]]:
        """Batch round-1 precomputation: ``count`` nonce pairs up front.

        With a shared batch in place the online signing protocol needs only
        one round of interaction (the paper measures the worst case, both
        rounds; the ablation benchmark measures this mode too).
        """
        return [self.commit(key_share) for _ in range(count)]

    # -- binding factors and challenge --------------------------------------

    def binding_factor(
        self,
        group: Group,
        party_id: int,
        message: bytes,
        commitments: Sequence[NonceCommitment],
    ) -> int:
        transcript = (
            _RHO_DOMAIN
            + encode_int(party_id)
            + _commitment_transcript(message, commitments)
        )
        return group.scalar_from_bytes(hashlib.sha512(transcript).digest())

    def group_commitment(
        self,
        group: Group,
        message: bytes,
        commitments: Sequence[NonceCommitment],
    ) -> GroupElement:
        """R = Π D_j · E_j^{ρ_j} over the signing group."""
        ordered = _sorted_commitments(commitments)
        r = group.multi_exp(
            [c.big_e for c in ordered],
            [self.binding_factor(group, c.id, message, commitments) for c in ordered],
        )
        for commitment in ordered:
            r = r * commitment.big_d
        return r

    def challenge(
        self, group: Group, r: GroupElement, y: GroupElement, message: bytes
    ) -> int:
        transcript = (
            _CHALLENGE_DOMAIN
            + encode_bytes(r.to_bytes())
            + encode_bytes(y.to_bytes())
            + encode_bytes(message)
        )
        return group.scalar_from_bytes(hashlib.sha512(transcript).digest())

    def _lambda(
        self, group: Group, commitments: Sequence[NonceCommitment]
    ) -> Mapping[int, int]:
        ids = [c.id for c in commitments]
        return lagrange_coefficients_at_zero(ids, group.order)

    # -- round 2 -----------------------------------------------------------

    def sign_round(
        self,
        key_share: Kg20KeyShare,
        message: bytes,
        nonce: NoncePair,
        commitments: Sequence[NonceCommitment],
    ) -> Kg20SignatureShare:
        """Produce z_i from the agreed commitment list (round 2)."""
        group = key_share.public.group
        ids = [c.id for c in commitments]
        if key_share.id not in ids:
            raise InvalidShareError("own commitment missing from signing group")
        rho = self.binding_factor(group, key_share.id, message, commitments)
        r = self.group_commitment(group, message, commitments)
        c = self.challenge(group, r, key_share.public.y, message)
        lam = self._lambda(group, commitments)[key_share.id]
        z = (nonce.d + nonce.e * rho + lam * key_share.value * c) % group.order
        return Kg20SignatureShare(key_share.id, z)

    def partial_sign(self, key_share: Kg20KeyShare, message: bytes):
        raise InvalidSignatureError(
            "KG20 is interactive: use commit()/sign_round() (two rounds) "
            "or precompute() plus sign_round() (one round)"
        )

    def verify_signature_share(
        self,
        public_key: Kg20PublicKey,
        message: bytes,
        share: Kg20SignatureShare,
        commitments: Sequence[NonceCommitment] | None = None,
    ) -> None:
        if commitments is None:
            raise InvalidShareError("KG20 share verification needs the commitments")
        if not 1 <= share.id <= public_key.parties:
            raise InvalidShareError(f"share id {share.id} out of range")
        group = public_key.group
        by_id = {c.id: c for c in commitments}
        if share.id not in by_id:
            raise InvalidShareError(f"no commitment for share id {share.id}")
        rho = self.binding_factor(group, share.id, message, commitments)
        r = self.group_commitment(group, message, commitments)
        c = self.challenge(group, r, public_key.y, message)
        lam = self._lambda(group, commitments)[share.id]
        commitment = by_id[share.id]
        expected = commitment.big_d * group.multi_exp(
            [commitment.big_e, public_key.verification_key(share.id)],
            [rho, lam * c],
        )
        if fixed_pow(group.generator(), share.z) != expected:
            raise InvalidShareError(f"KG20 share {share.id} verification failed")

    def combine(
        self,
        public_key: Kg20PublicKey,
        message: bytes,
        shares: Sequence[Kg20SignatureShare],
        commitments: Sequence[NonceCommitment] | None = None,
    ) -> Kg20Signature:
        if commitments is None:
            raise InvalidSignatureError("KG20 combine needs the commitment list")
        group = public_key.group
        commitment_ids = {c.id for c in commitments}
        share_ids = {s.id for s in shares}
        if share_ids != commitment_ids:
            # The signing group is fixed a priori; every member must respond.
            missing = sorted(commitment_ids - share_ids)
            raise InvalidSignatureError(
                f"missing signature shares from signing-group members {missing}"
            )
        r = self.group_commitment(group, message, commitments)
        z = sum(s.z for s in shares) % group.order
        signature = Kg20Signature(r, z)
        self.verify(public_key, message, signature)
        return signature

    def verify(
        self, public_key: Kg20PublicKey, message: bytes, signature: Kg20Signature
    ) -> None:
        group = public_key.group
        c = self.challenge(group, signature.r, public_key.y, message)
        if fixed_pow(group.generator(), signature.z) != signature.r * fixed_pow(
            public_key.y, c
        ):
            raise InvalidSignatureError("KG20 Schnorr verification failed")
