"""SH00 — Shoup's practical threshold RSA signatures.

The first non-interactive *robust* threshold signature scheme [43].  The
signing key d is shared over the secret order m = p'q' of the squares
subgroup Q_n (safe-prime modulus), shares are combined with Δ-scaled integer
Lagrange coefficients (Δ = n!), and every signature share carries a
Chaum–Pedersen-style proof of correctness *in the integers* (the "ZKP"
verification strategy of Table 1).

The paper benchmarks moduli of 512/1024/2048/4096 bits; 2048 is the default
(Table 3).  The assembled signature is an ordinary RSA FDH signature: y with
y^e = H(m)² (we square the full-domain hash so it always lands in Q_n).
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass
from typing import Sequence

from ..errors import InvalidShareError, InvalidSignatureError
from ..mathutils.lagrange import shoup_lagrange_coefficient
from ..mathutils.modular import inverse_mod, multiexp_mod
from ..rsa.keygen import RsaModulus, modulus_for_bits
from ..serialization import Reader, encode_bytes, encode_int
from ..sharing.integer_shamir import share_integer_secret
from .base import SCHEME_TABLE, ThresholdSignature, select_shares

#: Public RSA exponent; prime and > any realistic party count, so it is
#: coprime to Δ = n! as Shoup's combining step requires.
PUBLIC_EXPONENT = 65537

#: Bits of the Fiat–Shamir challenge (L1 in Shoup's notation).
_CHALLENGE_BITS = 256

_FDH_DOMAIN = b"repro-sh00-fdh"
_PROOF_DOMAIN = b"repro-sh00-proof"


@dataclass(frozen=True)
class Sh00PublicKey:
    """Modulus n, exponent e, and the share-verification material (v, v_i)."""

    threshold: int
    parties: int
    n: int
    e: int
    v: int
    verification_keys: tuple[int, ...]

    @property
    def delta(self) -> int:
        return math.factorial(self.parties)

    def verification_key(self, party_id: int) -> int:
        return self.verification_keys[party_id - 1]

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def to_bytes(self) -> bytes:
        return (
            encode_int(self.threshold)
            + encode_int(self.parties)
            + encode_int(self.n)
            + encode_int(self.e)
            + encode_int(self.v)
            + b"".join(encode_int(v) for v in self.verification_keys)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Sh00PublicKey":
        reader = Reader(data)
        threshold = reader.read_int()
        parties = reader.read_int()
        n = reader.read_int()
        e = reader.read_int()
        v = reader.read_int()
        keys = tuple(reader.read_int() for _ in range(parties))
        reader.finish()
        return Sh00PublicKey(threshold, parties, n, e, v, keys)


@dataclass(frozen=True)
class Sh00KeyShare:
    """Party i's additive piece s_i of the signing exponent (over Z_m)."""

    id: int
    value: int
    public: Sh00PublicKey


@dataclass(frozen=True)
class Sh00SignatureShare:
    """x_i = x^{2Δ s_i} with an integer DLEQ proof (challenge, response)."""

    id: int
    value: int
    challenge: int
    response: int

    def to_bytes(self) -> bytes:
        return (
            encode_int(self.id)
            + encode_int(self.value)
            + encode_int(self.challenge)
            + encode_int(self.response)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Sh00SignatureShare":
        reader = Reader(data)
        share = Sh00SignatureShare(
            reader.read_int(), reader.read_int(), reader.read_int(), reader.read_int()
        )
        reader.finish()
        return share


@dataclass(frozen=True)
class Sh00Signature:
    """A plain RSA signature y with y^e = H(m)² (mod n)."""

    value: int

    def to_bytes(self) -> bytes:
        return encode_int(self.value)

    @staticmethod
    def from_bytes(data: bytes) -> "Sh00Signature":
        reader = Reader(data)
        signature = Sh00Signature(reader.read_int())
        reader.finish()
        return signature


def keygen(
    threshold: int,
    parties: int,
    bits: int = 2048,
    modulus: RsaModulus | None = None,
    allow_generate: bool = False,
) -> tuple[Sh00PublicKey, list[Sh00KeyShare]]:
    """Trusted-dealer key generation for SH00.

    ``modulus`` may be supplied directly (tests); otherwise a fixture modulus
    for ``bits`` is used, or a fresh one generated when ``allow_generate``.
    """
    mod = modulus if modulus is not None else modulus_for_bits(bits, allow_generate)
    if parties >= PUBLIC_EXPONENT:
        raise InvalidSignatureError("party count must stay below the public exponent")
    d = inverse_mod(PUBLIC_EXPONENT, mod.m)
    shares = share_integer_secret(d, threshold, parties, mod.m)
    v = mod.random_square()
    verification_keys = tuple(pow(v, s.value, mod.n) for s in shares)
    public = Sh00PublicKey(
        threshold, parties, mod.n, PUBLIC_EXPONENT, v, verification_keys
    )
    return public, [Sh00KeyShare(s.id, s.value, public) for s in shares]


def _full_domain_hash(message: bytes, n: int) -> int:
    """Expand SHA-256 over a counter to an element of Z_n, then square."""
    target_bytes = (n.bit_length() + 7) // 8 + 16
    stream = b""
    counter = 0
    while len(stream) < target_bytes:
        stream += hashlib.sha256(
            _FDH_DOMAIN + counter.to_bytes(4, "big") + message
        ).digest()
        counter += 1
    x = int.from_bytes(stream[:target_bytes], "big") % n
    # Squaring forces the hash into Q_n regardless of its Jacobi symbol.
    return pow(x, 2, n)


class Sh00SignatureScheme(ThresholdSignature):
    """Shoup threshold RSA against the :class:`ThresholdSignature` interface."""

    info = SCHEME_TABLE["sh00"]

    def _proof_challenge(
        self,
        public_key: Sh00PublicKey,
        x_tilde: int,
        share_id: int,
        share_value: int,
        v_commit: int,
        x_commit: int,
    ) -> int:
        transcript = (
            _PROOF_DOMAIN
            + encode_int(public_key.v)
            + encode_int(x_tilde)
            + encode_int(public_key.verification_key(share_id))
            + encode_int(pow(share_value, 2, public_key.n))
            + encode_int(v_commit)
            + encode_int(x_commit)
        )
        digest = hashlib.sha256(transcript).digest()
        return int.from_bytes(digest, "big") % (1 << _CHALLENGE_BITS)

    def partial_sign(
        self, key_share: Sh00KeyShare, message: bytes
    ) -> Sh00SignatureShare:
        public_key = key_share.public
        n = public_key.n
        x = _full_domain_hash(message, n)
        two_delta = 2 * public_key.delta
        value = pow(x, two_delta * key_share.value, n)
        # Integer DLEQ: log_v(v_i) == log_{x^{4Δ}}(x_i²) == s_i.
        x_tilde = pow(x, 2 * two_delta, n)
        r_bound = 1 << (n.bit_length() + 2 * _CHALLENGE_BITS)
        r = secrets.randbelow(r_bound)
        v_commit = pow(public_key.v, r, n)
        x_commit = pow(x_tilde, r, n)
        challenge = self._proof_challenge(
            public_key, x_tilde, key_share.id, value, v_commit, x_commit
        )
        response = key_share.value * challenge + r
        return Sh00SignatureShare(key_share.id, value, challenge, response)

    def verify_signature_share(
        self, public_key: Sh00PublicKey, message: bytes, share: Sh00SignatureShare
    ) -> None:
        if not 1 <= share.id <= public_key.parties:
            raise InvalidShareError(f"share id {share.id} out of range")
        n = public_key.n
        if not 0 < share.value < n:
            raise InvalidShareError("share value out of range")
        x = _full_domain_hash(message, n)
        x_tilde = pow(x, 4 * public_key.delta, n)
        v_i = public_key.verification_key(share.id)
        v_commit = multiexp_mod(
            [(public_key.v, share.response), (v_i, -share.challenge)], n
        )
        x_commit = multiexp_mod(
            [(x_tilde, share.response), (share.value, -2 * share.challenge)], n
        )
        expected = self._proof_challenge(
            public_key, x_tilde, share.id, share.value, v_commit, x_commit
        )
        if expected != share.challenge:
            raise InvalidShareError(f"SH00 share {share.id} proof invalid")

    def combine(
        self,
        public_key: Sh00PublicKey,
        message: bytes,
        shares: Sequence[Sh00SignatureShare],
    ) -> Sh00Signature:
        n = public_key.n
        chosen = select_shares(shares, public_key.threshold)
        ids = [share.id for share in chosen]
        # w = Π x_i^{2λ_i}: the t+1 Δ-scaled Lagrange powers of the shares.
        w = multiexp_mod(
            [
                (
                    share.value,
                    2 * shoup_lagrange_coefficient(public_key.parties, ids, share.id),
                )
                for share in chosen
            ],
            n,
        )
        # w^e = x^{4Δ²}; Bezout on (4Δ², e) turns w into a plain e-th root.
        x = _full_domain_hash(message, n)
        e_prime = 4 * public_key.delta * public_key.delta
        g, a, b = _extended_gcd(e_prime, public_key.e)
        if g != 1:
            raise InvalidSignatureError("gcd(4Δ², e) != 1; invalid parameters")
        y = (_pow_signed(w, a, n) * _pow_signed(x, b, n)) % n
        signature = Sh00Signature(y)
        self.verify(public_key, message, signature)
        return signature

    def verify(
        self, public_key: Sh00PublicKey, message: bytes, signature: Sh00Signature
    ) -> None:
        x = _full_domain_hash(message, public_key.n)
        if pow(signature.value, public_key.e, public_key.n) != x:
            raise InvalidSignatureError("SH00 signature verification failed")


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a·x + b·y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def _pow_signed(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation supporting negative exponents."""
    if exponent >= 0:
        return pow(base, exponent, modulus)
    return pow(inverse_mod(base, modulus), -exponent, modulus)
