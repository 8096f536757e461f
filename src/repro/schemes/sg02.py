"""SG02 — the Shoup–Gennaro TDH2 threshold cryptosystem.

The first non-interactive threshold cipher provably CCA-secure [44].  This is
the ElGamal-based construction with a zero-knowledge proof of language
membership attached to every ciphertext, plus DLEQ proofs on decryption
shares.  As in the paper (§3.5) we apply the hybrid DHIES-style approach: the
threshold layer encrypts a fresh ChaCha20-Poly1305 key; the payload is
encrypted symmetrically, which is why payload size barely affects latency
(Fig. 5b).

Default group: Ed25519 (Table 3).
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from ..errors import ConfigurationError, InvalidCiphertextError, InvalidShareError
from ..errors import SerializationError
from ..groups.base import Group, GroupElement
from ..groups.precompute import fixed_pow
from ..groups.registry import get_group
from ..mathutils.lagrange import lagrange_coefficients_at_zero
from ..serialization import Reader, encode_bytes, encode_int, encode_str
from ..sharing.shamir import share_secret
from ..symmetric import AeadError, ChaCha20Poly1305
from .base import SCHEME_TABLE, ThresholdCipher, select_shares
from .dleq import DleqProof, dleq_prove, dleq_verify

_KDF_DOMAIN = b"repro-sg02-kdf"
_CHALLENGE_DOMAIN = b"repro-sg02-challenge"
_GBAR_TAG = b"repro-sg02-second-generator"


def _kdf(element: GroupElement) -> bytes:
    """Derive the 32-byte symmetric-key mask from a group element."""
    return hashlib.sha256(_KDF_DOMAIN + element.to_bytes()).digest()


@cache
def _g_bar(group_name: str) -> GroupElement:
    """SG02's second generator ḡ, hashed onto the group once per process."""
    return get_group(group_name).hash_to_element(_GBAR_TAG)


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class Sg02PublicKey:
    """Service public key h = g^x plus per-party verification keys."""

    group_name: str
    threshold: int
    parties: int
    h: GroupElement
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
            + encode_bytes(self.h.to_bytes())
            + b"".join(encode_bytes(v.to_bytes()) for v in self.verification_keys)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Sg02PublicKey":
        reader = Reader(data)
        group_name = reader.read_str()
        threshold = reader.read_int()
        parties = reader.read_int()
        try:
            group = get_group(group_name)
        except ConfigurationError as exc:
            raise SerializationError(str(exc)) from exc
        h = group.element_from_bytes(reader.read_bytes())
        keys = tuple(
            group.element_from_bytes(reader.read_bytes()) for _ in range(parties)
        )
        reader.finish()
        return Sg02PublicKey(group_name, threshold, parties, h, keys)


@dataclass(frozen=True)
class Sg02KeyShare:
    """Party i's share x_i of the decryption key."""

    id: int
    value: int
    public: Sg02PublicKey


@dataclass(frozen=True)
class Sg02Ciphertext:
    """TDH2 ciphertext: hybrid payload plus the validity proof (e, f)."""

    label: bytes
    masked_key: bytes
    u: GroupElement
    u_bar: GroupElement
    e: int
    f: int
    nonce: bytes
    payload: bytes

    def to_bytes(self) -> bytes:
        return (
            encode_bytes(self.label)
            + encode_bytes(self.masked_key)
            + encode_bytes(self.u.to_bytes())
            + encode_bytes(self.u_bar.to_bytes())
            + encode_int(self.e)
            + encode_int(self.f)
            + encode_bytes(self.nonce)
            + encode_bytes(self.payload)
        )

    @staticmethod
    def from_bytes(data: bytes, group: Group) -> "Sg02Ciphertext":
        reader = Reader(data)
        label = reader.read_bytes()
        masked_key = reader.read_bytes()
        u = group.element_from_bytes(reader.read_bytes())
        u_bar = group.element_from_bytes(reader.read_bytes())
        e = reader.read_int()
        f = reader.read_int()
        nonce = reader.read_bytes()
        payload = reader.read_bytes()
        reader.finish()
        return Sg02Ciphertext(label, masked_key, u, u_bar, e, f, nonce, payload)


@dataclass(frozen=True)
class Sg02DecryptionShare:
    """Partial decryption u_i = u^{x_i} with a DLEQ validity proof."""

    id: int
    u_i: GroupElement
    proof: DleqProof

    def to_bytes(self) -> bytes:
        return (
            encode_int(self.id)
            + encode_bytes(self.u_i.to_bytes())
            + self.proof.to_bytes()
        )

    @staticmethod
    def from_bytes(data: bytes, group: Group) -> "Sg02DecryptionShare":
        reader = Reader(data)
        share_id = reader.read_int()
        u_i = group.element_from_bytes(reader.read_bytes())
        proof = DleqProof.read_from(reader)
        reader.finish()
        return Sg02DecryptionShare(share_id, u_i, proof)


def keygen(
    threshold: int, parties: int, group_name: str = "ed25519"
) -> tuple[Sg02PublicKey, list[Sg02KeyShare]]:
    """Trusted-dealer key generation for SG02."""
    group = get_group(group_name)
    x = group.random_scalar()
    shares = share_secret(x, threshold, parties, group.order)
    h = fixed_pow(group.generator(), x)
    verification_keys = tuple(
        fixed_pow(group.generator(), s.value) for s in shares
    )
    public = Sg02PublicKey(group_name, threshold, parties, h, verification_keys)
    return public, [Sg02KeyShare(s.id, s.value, public) for s in shares]


class Sg02Cipher(ThresholdCipher):
    """The TDH2 scheme against the :class:`ThresholdCipher` interface."""

    info = SCHEME_TABLE["sg02"]

    def _challenge(
        self,
        group: Group,
        masked_key: bytes,
        label: bytes,
        u: GroupElement,
        w: GroupElement,
        u_bar: GroupElement,
        w_bar: GroupElement,
    ) -> int:
        transcript = _CHALLENGE_DOMAIN + encode_bytes(masked_key) + encode_bytes(label)
        for element in (u, w, u_bar, w_bar):
            transcript += encode_bytes(element.to_bytes())
        return group.scalar_from_bytes(hashlib.sha256(transcript).digest())

    def encrypt(
        self, public_key: Sg02PublicKey, plaintext: bytes, label: bytes = b""
    ) -> Sg02Ciphertext:
        group = public_key.group
        g = group.generator()
        g_bar = _g_bar(group.name)
        sym_key = ChaCha20Poly1305.generate_key()
        nonce = secrets.token_bytes(ChaCha20Poly1305.NONCE_SIZE)
        payload = ChaCha20Poly1305(sym_key).encrypt(nonce, plaintext, aad=label)
        r = group.random_scalar()
        s = group.random_scalar()
        masked_key = _xor(sym_key, _kdf(fixed_pow(public_key.h, r)))
        u = fixed_pow(g, r)
        w = fixed_pow(g, s)
        u_bar = fixed_pow(g_bar, r)
        w_bar = fixed_pow(g_bar, s)
        e = self._challenge(group, masked_key, label, u, w, u_bar, w_bar)
        f = (s + r * e) % group.order
        return Sg02Ciphertext(label, masked_key, u, u_bar, e, f, nonce, payload)

    def verify_ciphertext(
        self,
        public_key: Sg02PublicKey,
        ciphertext: Sg02Ciphertext,
        *,
        u_minus_e: GroupElement | None = None,
    ) -> None:
        """Check the ciphertext's proof; raise InvalidCiphertextError if not.

        A caller that raised u to −e on a shared chain passes it as
        ``u_minus_e``.
        """
        group = public_key.group
        g = group.generator()
        g_bar = _g_bar(group.name)
        if u_minus_e is None:
            u_minus_e = ciphertext.u ** (-ciphertext.e)
        w = fixed_pow(g, ciphertext.f) * u_minus_e
        w_bar = fixed_pow(g_bar, ciphertext.f) * ciphertext.u_bar ** (-ciphertext.e)
        expected = self._challenge(
            group,
            ciphertext.masked_key,
            ciphertext.label,
            ciphertext.u,
            w,
            ciphertext.u_bar,
            w_bar,
        )
        if expected != ciphertext.e:
            raise InvalidCiphertextError("SG02 ciphertext proof invalid")

    def create_decryption_share(
        self, key_share: Sg02KeyShare, ciphertext: Sg02Ciphertext
    ) -> Sg02DecryptionShare:
        public_key = key_share.public
        group = public_key.group
        # u^−e (the proof check), u^{x_i} (the share) and u^r (the DLEQ
        # commitment) on one shared chain.
        r = group.random_scalar()
        u_minus_e, u_i, commitment = ciphertext.u.powers(
            -ciphertext.e, key_share.value, r
        )
        # Nodes must refuse to decrypt malformed ciphertexts — this check is
        # exactly what makes the scheme CCA secure in the threshold setting.
        # It runs before anything derived from x_i leaves this method.
        self.verify_ciphertext(public_key, ciphertext, u_minus_e=u_minus_e)
        proof = dleq_prove(
            group,
            group.generator(),
            ciphertext.u,
            key_share.value,
            context=ciphertext.label,
            h1=public_key.verification_key(key_share.id),
            h2=u_i,
            commitment=(r, commitment),
        )
        return Sg02DecryptionShare(key_share.id, u_i, proof)

    def verify_decryption_share(
        self,
        public_key: Sg02PublicKey,
        ciphertext: Sg02Ciphertext,
        share: Sg02DecryptionShare,
    ) -> None:
        if not 1 <= share.id <= public_key.parties:
            raise InvalidShareError(f"share id {share.id} out of range")
        group = public_key.group
        dleq_verify(
            group,
            group.generator(),
            public_key.verification_key(share.id),
            ciphertext.u,
            share.u_i,
            share.proof,
            context=ciphertext.label,
        )

    def combine(
        self,
        public_key: Sg02PublicKey,
        ciphertext: Sg02Ciphertext,
        shares: Sequence[Sg02DecryptionShare],
    ) -> bytes:
        """Precondition: the caller has checked ``ciphertext`` with
        :meth:`verify_ciphertext`, as :meth:`create_decryption_share` does."""
        group = public_key.group
        chosen = select_shares(shares, public_key.threshold)
        ids = [share.id for share in chosen]
        coefficients = lagrange_coefficients_at_zero(ids, group.order)
        u_x = group.multi_exp(
            [share.u_i for share in chosen],
            [coefficients[share.id] for share in chosen],
        )
        sym_key = _xor(ciphertext.masked_key, _kdf(u_x))
        try:
            return ChaCha20Poly1305(sym_key).decrypt(
                ciphertext.nonce, ciphertext.payload, aad=ciphertext.label
            )
        except AeadError as exc:
            raise InvalidShareError(
                "combined key failed AEAD authentication "
                "(an unverified share was probably included)"
            ) from exc
