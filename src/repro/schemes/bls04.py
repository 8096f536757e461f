"""BLS04 — threshold Boneh–Lynn–Shacham short signatures.

The key homomorphism of BLS makes the scheme "directly threshold-friendly"
(§3.5): a signature share is σ_i = H(m)^{x_i} ∈ G1, verified with the same
pairing equation as a full signature against the per-party verification key,
and shares combine by Lagrange interpolation in the exponent.  Signatures
are a single G1 point — short compared to RSA/DSA at similar security.

Default group: BN254 (Table 3).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ..errors import InvalidShareError, InvalidSignatureError, SerializationError
from ..groups.bn254 import BilinearGroup, bn254_pairing
from ..groups.bn254.g1 import BN254G1Element
from ..groups.bn254.g2 import BN254G2Element
from ..groups.precompute import fixed_pow
from ..mathutils.lagrange import lagrange_coefficients_at_zero
from ..serialization import Reader, encode_bytes, encode_int
from ..sharing.shamir import share_secret
from .base import (
    HASH_MEMO_SIZE, SCHEME_TABLE, ThresholdSignature, memo_stats, select_shares,
)

_H_DOMAIN = b"repro-bls04-message"


@dataclass(frozen=True)
class Bls04PublicKey:
    """y = g₂^x plus verification keys y_i = g₂^{x_i}."""

    threshold: int
    parties: int
    y: BN254G2Element
    verification_keys: tuple[BN254G2Element, ...]

    @property
    def pairing(self) -> BilinearGroup:
        return bn254_pairing()

    def verification_key(self, party_id: int) -> BN254G2Element:
        return self.verification_keys[party_id - 1]

    def to_bytes(self) -> bytes:
        return (
            encode_int(self.threshold)
            + encode_int(self.parties)
            + encode_bytes(self.y.to_bytes())
            + b"".join(encode_bytes(v.to_bytes()) for v in self.verification_keys)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Bls04PublicKey":
        reader = Reader(data)
        threshold = reader.read_int()
        parties = reader.read_int()
        g2 = bn254_pairing().g2
        y = g2.element_from_bytes(reader.read_bytes())
        keys = tuple(
            g2.element_from_bytes(reader.read_bytes()) for _ in range(parties)
        )
        reader.finish()
        # KeyValidate: under an identity key both pairs of the check are
        # skipped, so the identity signature would verify for every message.
        if y.infinity or any(key.infinity for key in keys):
            raise SerializationError("BLS04 public key contains the identity")
        return Bls04PublicKey(threshold, parties, y, keys)


@dataclass(frozen=True)
class Bls04KeyShare:
    """Party i's share x_i of the signing key."""

    id: int
    value: int
    public: Bls04PublicKey


@dataclass(frozen=True)
class Bls04SignatureShare:
    """σ_i = H(m)^{x_i}; validity is pairing-checked, no attached proof."""

    id: int
    sigma: BN254G1Element

    def to_bytes(self) -> bytes:
        return encode_int(self.id) + encode_bytes(self.sigma.to_bytes())

    @staticmethod
    def from_bytes(data: bytes) -> "Bls04SignatureShare":
        reader = Reader(data)
        share_id = reader.read_int()
        sigma = bn254_pairing().g1.element_from_bytes(reader.read_bytes())
        reader.finish()
        return Bls04SignatureShare(share_id, sigma)


@dataclass(frozen=True)
class Bls04Signature:
    """A standard BLS signature: one G1 point (64 bytes)."""

    sigma: BN254G1Element

    def to_bytes(self) -> bytes:
        return encode_bytes(self.sigma.to_bytes())

    @staticmethod
    def from_bytes(data: bytes) -> "Bls04Signature":
        reader = Reader(data)
        sigma = bn254_pairing().g1.element_from_bytes(reader.read_bytes())
        reader.finish()
        return Bls04Signature(sigma)


def keygen(threshold: int, parties: int) -> tuple[Bls04PublicKey, list[Bls04KeyShare]]:
    """Trusted-dealer key generation for threshold BLS on BN254."""
    pairing = bn254_pairing()
    x = pairing.g2.random_scalar()
    shares = share_secret(x, threshold, parties, pairing.order)
    g2 = pairing.g2.generator()
    public = Bls04PublicKey(
        threshold,
        parties,
        fixed_pow(g2, x),
        tuple(fixed_pow(g2, s.value) for s in shares),
    )
    return public, [Bls04KeyShare(s.id, s.value, public) for s in shares]


@lru_cache(maxsize=HASH_MEMO_SIZE)
def _hash_message(message: bytes) -> BN254G1Element:
    """H(m); memoized, so a node that signs its share and then verifies the
    combined signature hashes the message once."""
    return bn254_pairing().g1.hash_to_element(_H_DOMAIN + message)


def hash_memo_stats() -> dict:
    """Hit/size counters for the message hash memo."""
    return memo_stats(_hash_message)


class Bls04SignatureScheme(ThresholdSignature):
    """Threshold BLS against the :class:`ThresholdSignature` interface."""

    info = SCHEME_TABLE["bls04"]

    def partial_sign(
        self, key_share: Bls04KeyShare, message: bytes
    ) -> Bls04SignatureShare:
        h = _hash_message(message)
        return Bls04SignatureShare(key_share.id, h**key_share.value)

    def verify_signature_share(
        self, public_key: Bls04PublicKey, message: bytes, share: Bls04SignatureShare
    ) -> None:
        if not 1 <= share.id <= public_key.parties:
            raise InvalidShareError(f"share id {share.id} out of range")
        pairing = public_key.pairing
        h = _hash_message(message)
        # e(σ_i, g₂) == e(H(m), y_i).
        valid = pairing.pair_check(
            [
                (share.sigma, pairing.g2.generator()),
                (h.inverse(), public_key.verification_key(share.id)),
            ]
        )
        if not valid:
            raise InvalidShareError(f"BLS04 share {share.id} pairing check failed")

    def combine(
        self,
        public_key: Bls04PublicKey,
        message: bytes,
        shares: Sequence[Bls04SignatureShare],
    ) -> Bls04Signature:
        pairing = public_key.pairing
        chosen = select_shares(shares, public_key.threshold)
        ids = [share.id for share in chosen]
        coefficients = lagrange_coefficients_at_zero(ids, pairing.order)
        sigma = pairing.g1.multi_exp(
            [share.sigma for share in chosen],
            [coefficients[share.id] for share in chosen],
        )
        signature = Bls04Signature(sigma)
        self.verify(public_key, message, signature)
        return signature

    def verify(
        self, public_key: Bls04PublicKey, message: bytes, signature: Bls04Signature
    ) -> None:
        pairing = public_key.pairing
        h = _hash_message(message)
        valid = pairing.pair_check(
            [
                (signature.sigma, pairing.g2.generator()),
                (h.inverse(), public_key.y),
            ]
        )
        if not valid:
            raise InvalidSignatureError("BLS04 signature verification failed")

    def verify_share_batch(
        self,
        public_key: Bls04PublicKey,
        message: bytes,
        shares: Sequence[Bls04SignatureShare],
        identify: bool = False,
    ) -> None:
        """Verify many shares with one pairing product (random linear combination).

        Instead of 2 pairings per share, combine the shares with small
        random exponents r_i and check a single equation::

            e(Π σ_i^{r_i}, g₂) == e(H(m), Π y_i^{r_i})

        A forged share escapes only with probability 2⁻¹²⁸.  With
        ``identify=True`` a failing batch is re-checked share by share and
        the error names the culprit ids (k+1 extra pairing checks, only on
        the failure path); otherwise the caller falls back manually.
        """
        if not shares:
            return
        pairing = public_key.pairing
        for share in shares:
            if not 1 <= share.id <= public_key.parties:
                raise InvalidShareError(f"share id {share.id} out of range")
        exponents = [secrets.randbits(128) | 1 for _ in shares]
        sigma_combined = pairing.g1.multi_exp(
            [share.sigma for share in shares], exponents
        )
        key_combined = pairing.g2.multi_exp(
            [public_key.verification_key(share.id) for share in shares], exponents
        )
        h = _hash_message(message)
        valid = pairing.pair_check(
            [
                (sigma_combined, pairing.g2.generator()),
                (h.inverse(), key_combined),
            ]
        )
        if valid:
            return
        if identify:
            culprits = []
            for share in shares:
                try:
                    self.verify_signature_share(public_key, message, share)
                except InvalidShareError:
                    culprits.append(share.id)
            raise InvalidShareError(
                f"batch verification failed: invalid shares from ids {culprits}",
                culprits,
            )
        raise InvalidShareError(
            "batch verification failed: at least one share is invalid"
        )
