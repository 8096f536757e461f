"""BZ03 — the Baek–Zheng threshold cryptosystem from gap Diffie-Hellman.

Shares the CCA security of SG02 but replaces zero-knowledge proofs with
pairings (§3.5): both the ciphertext validity check and the decryption-share
check are single pairing-product equations, so shares carry no proof at all.
The same hybrid ChaCha20-Poly1305 approach is used for the payload.

Layout on BN254: the key pair lives in G2 (y = g₂^x), decryption shares in
G1 (δ_i = ĥ^{x_i} for ĥ = H1(label, u) ∈ G1), and the KEM mask in GT.
Ciphertext validity binds (u, v) through w = H3(u, v)^r with the check
e(w, g₂) = e(H3(u, v), u); nodes refuse to release shares for invalid
ciphertexts, which is the CCA guard.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Sequence

from ..errors import InvalidCiphertextError, InvalidShareError
from ..groups.bn254 import BilinearGroup, bn254_pairing
from ..groups.bn254.g1 import BN254G1Element
from ..groups.bn254.g2 import BN254G2Element
from ..groups.precompute import fixed_pow
from ..mathutils.lagrange import lagrange_coefficients_at_zero
from ..serialization import Reader, encode_bytes, encode_int
from ..sharing.shamir import share_secret
from ..symmetric import AeadError, ChaCha20Poly1305
from .base import SCHEME_TABLE, ThresholdCipher, select_shares

_KDF_DOMAIN = b"repro-bz03-kdf"
_H1_DOMAIN = b"repro-bz03-h1"
_H3_DOMAIN = b"repro-bz03-h3"


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class Bz03PublicKey:
    """y = g₂^x with per-party verification keys y_i = g₂^{x_i}."""

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
    def from_bytes(data: bytes) -> "Bz03PublicKey":
        reader = Reader(data)
        threshold = reader.read_int()
        parties = reader.read_int()
        g2 = bn254_pairing().g2
        y = g2.element_from_bytes(reader.read_bytes())
        keys = tuple(
            g2.element_from_bytes(reader.read_bytes()) for _ in range(parties)
        )
        reader.finish()
        return Bz03PublicKey(threshold, parties, y, keys)


@dataclass(frozen=True)
class Bz03KeyShare:
    """Party i's share x_i."""

    id: int
    value: int
    public: Bz03PublicKey


@dataclass(frozen=True)
class Bz03Ciphertext:
    """(u, v, w) plus the hybrid payload; u ∈ G2, w ∈ G1."""

    label: bytes
    u: BN254G2Element
    masked_key: bytes  # v
    w: BN254G1Element
    nonce: bytes
    payload: bytes

    def to_bytes(self) -> bytes:
        return (
            encode_bytes(self.label)
            + encode_bytes(self.u.to_bytes())
            + encode_bytes(self.masked_key)
            + encode_bytes(self.w.to_bytes())
            + encode_bytes(self.nonce)
            + encode_bytes(self.payload)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Bz03Ciphertext":
        pairing = bn254_pairing()
        reader = Reader(data)
        label = reader.read_bytes()
        u = pairing.g2.element_from_bytes(reader.read_bytes())
        masked_key = reader.read_bytes()
        w = pairing.g1.element_from_bytes(reader.read_bytes())
        nonce = reader.read_bytes()
        payload = reader.read_bytes()
        reader.finish()
        return Bz03Ciphertext(label, u, masked_key, w, nonce, payload)


@dataclass(frozen=True)
class Bz03DecryptionShare:
    """δ_i = ĥ^{x_i} ∈ G1; validity is pairing-checked, no proof needed."""

    id: int
    delta: BN254G1Element

    def to_bytes(self) -> bytes:
        return encode_int(self.id) + encode_bytes(self.delta.to_bytes())

    @staticmethod
    def from_bytes(data: bytes) -> "Bz03DecryptionShare":
        reader = Reader(data)
        share_id = reader.read_int()
        delta = bn254_pairing().g1.element_from_bytes(reader.read_bytes())
        reader.finish()
        return Bz03DecryptionShare(share_id, delta)


def keygen(threshold: int, parties: int) -> tuple[Bz03PublicKey, list[Bz03KeyShare]]:
    """Trusted-dealer key generation for BZ03 on BN254."""
    pairing = bn254_pairing()
    x = pairing.g2.random_scalar()
    shares = share_secret(x, threshold, parties, pairing.order)
    g2 = pairing.g2.generator()
    public = Bz03PublicKey(
        threshold,
        parties,
        fixed_pow(g2, x),
        tuple(fixed_pow(g2, s.value) for s in shares),
    )
    return public, [Bz03KeyShare(s.id, s.value, public) for s in shares]


def _h1(label: bytes, u: BN254G2Element) -> BN254G1Element:
    """ĥ = H1(label, u) ∈ G1 — the ciphertext-bound KEM base."""
    return bn254_pairing().g1.hash_to_element(
        _H1_DOMAIN + encode_bytes(label) + encode_bytes(u.to_bytes())
    )


def _h3(u: BN254G2Element, masked_key: bytes) -> BN254G1Element:
    """H3(u, v) ∈ G1 — the base of the integrity tag w."""
    return bn254_pairing().g1.hash_to_element(
        _H3_DOMAIN + encode_bytes(u.to_bytes()) + encode_bytes(masked_key)
    )


def _kdf(gt_element) -> bytes:
    return hashlib.sha256(_KDF_DOMAIN + gt_element.to_bytes()).digest()


class Bz03Cipher(ThresholdCipher):
    """Baek–Zheng against the :class:`ThresholdCipher` interface."""

    info = SCHEME_TABLE["bz03"]

    def encrypt(
        self, public_key: Bz03PublicKey, plaintext: bytes, label: bytes = b""
    ) -> Bz03Ciphertext:
        pairing = public_key.pairing
        sym_key = ChaCha20Poly1305.generate_key()
        nonce = secrets.token_bytes(ChaCha20Poly1305.NONCE_SIZE)
        payload = ChaCha20Poly1305(sym_key).encrypt(nonce, plaintext, aad=label)
        r = pairing.g2.random_scalar()
        u = fixed_pow(pairing.g2.generator(), r)
        h_hat = _h1(label, u)
        # e(ĥ^r, y) = e(ĥ, y)^r: one G1 multiplication instead of a GT power.
        mask = _kdf(pairing.pair(h_hat**r, public_key.y))
        masked_key = _xor(sym_key, mask)
        w = _h3(u, masked_key) ** r
        return Bz03Ciphertext(label, u, masked_key, w, nonce, payload)

    def verify_ciphertext(
        self, public_key: Bz03PublicKey, ciphertext: Bz03Ciphertext
    ) -> None:
        pairing = public_key.pairing
        h3 = _h3(ciphertext.u, ciphertext.masked_key)
        # e(w, g₂) == e(H3(u, v), u)  ⟺  w = H3(u, v)^r for u = g₂^r.
        valid = pairing.pair_check(
            [
                (ciphertext.w, pairing.g2.generator()),
                (h3.inverse(), ciphertext.u),
            ]
        )
        if not valid:
            raise InvalidCiphertextError("BZ03 ciphertext integrity check failed")

    def create_decryption_share(
        self, key_share: Bz03KeyShare, ciphertext: Bz03Ciphertext
    ) -> Bz03DecryptionShare:
        # CCA guard: only well-formed ciphertexts get decryption shares.
        self.verify_ciphertext(key_share.public, ciphertext)
        h_hat = _h1(ciphertext.label, ciphertext.u)
        return Bz03DecryptionShare(key_share.id, h_hat**key_share.value)

    def verify_decryption_share(
        self,
        public_key: Bz03PublicKey,
        ciphertext: Bz03Ciphertext,
        share: Bz03DecryptionShare,
    ) -> None:
        if not 1 <= share.id <= public_key.parties:
            raise InvalidShareError(f"share id {share.id} out of range")
        pairing = public_key.pairing
        h_hat = _h1(ciphertext.label, ciphertext.u)
        # e(δ_i, g₂) == e(ĥ, y_i).
        valid = pairing.pair_check(
            [
                (share.delta, pairing.g2.generator()),
                (h_hat.inverse(), public_key.verification_key(share.id)),
            ]
        )
        if not valid:
            raise InvalidShareError(f"BZ03 share {share.id} pairing check failed")

    def combine(
        self,
        public_key: Bz03PublicKey,
        ciphertext: Bz03Ciphertext,
        shares: Sequence[Bz03DecryptionShare],
    ) -> bytes:
        """Precondition: the caller has checked ``ciphertext`` with
        :meth:`verify_ciphertext`, as :meth:`create_decryption_share` does."""
        pairing = public_key.pairing
        chosen = select_shares(shares, public_key.threshold)
        ids = [share.id for share in chosen]
        coefficients = lagrange_coefficients_at_zero(ids, pairing.order)
        delta = pairing.g1.multi_exp(
            [share.delta for share in chosen],
            [coefficients[share.id] for share in chosen],
        )
        mask = _kdf(pairing.pair(delta, ciphertext.u))
        sym_key = _xor(ciphertext.masked_key, mask)
        try:
            return ChaCha20Poly1305(sym_key).decrypt(
                ciphertext.nonce, ciphertext.payload, aad=ciphertext.label
            )
        except AeadError as exc:
            raise InvalidShareError(
                "combined key failed AEAD authentication "
                "(an unverified share was probably included)"
            ) from exc
