"""Chaum–Pedersen proofs of discrete-log equality, made non-interactive.

Used as the "ZKP" verification strategy of Table 1: SG02 decryption shares,
CKS05 coin shares, and (in the integers, with its own variant in
:mod:`sh00`) Shoup signature shares all carry a proof that the share was
computed with the committed key share.  The proof shows
``log_{g1}(h1) = log_{g2}(h2)`` via the Fiat–Shamir transform.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import InvalidProofError
from ..groups.base import Group, GroupElement
from ..groups.precompute import fixed_pow
from ..serialization import Reader, encode_bytes, encode_int

_DOMAIN = b"repro-dleq-chaum-pedersen-v1"


@dataclass(frozen=True)
class DleqProof:
    """Fiat–Shamir transcript (challenge c, response z)."""

    challenge: int
    response: int

    def to_bytes(self) -> bytes:
        return encode_int(self.challenge) + encode_int(self.response)

    @staticmethod
    def from_bytes(data: bytes) -> "DleqProof":
        reader = Reader(data)
        proof = DleqProof(reader.read_int(), reader.read_int())
        reader.finish()
        return proof

    @staticmethod
    def read_from(reader: Reader) -> "DleqProof":
        return DleqProof(reader.read_int(), reader.read_int())


def _challenge(
    group: Group,
    g1: GroupElement,
    h1: GroupElement,
    g2: GroupElement,
    h2: GroupElement,
    a1: GroupElement,
    a2: GroupElement,
    context: bytes,
) -> int:
    transcript = _DOMAIN + encode_bytes(context)
    for element in (g1, h1, g2, h2, a1, a2):
        transcript += encode_bytes(element.to_bytes())
    return group.scalar_from_bytes(hashlib.sha256(transcript).digest())


def dleq_prove(
    group: Group,
    g1: GroupElement,
    g2: GroupElement,
    secret: int,
    context: bytes = b"",
    h1: GroupElement | None = None,
    h2: GroupElement | None = None,
    commitment: tuple[int, GroupElement] | None = None,
) -> DleqProof:
    """Prove knowledge of ``secret`` with h1 = g1^secret, h2 = g2^secret.

    Callers that already hold ``h1``/``h2`` (every scheme does: they are the
    verification key and the share being proven) pass them in to skip the
    two recomputation exponentiations.  A caller that raised g2 to a nonce
    r on the same chain as h2 (``g2.powers(secret, r)``) passes
    ``commitment=(r, g2^r)``; otherwise the nonce is drawn here.
    """
    if h1 is None:
        h1 = fixed_pow(g1, secret)
    if h2 is None:
        h2 = g2**secret
    if commitment is None:
        r = group.random_scalar()
        a2 = g2**r
    else:
        r, a2 = commitment
    a1 = fixed_pow(g1, r)
    c = _challenge(group, g1, h1, g2, h2, a1, a2, context)
    z = (r + c * secret) % group.order
    return DleqProof(c, z)


def dleq_verify(
    group: Group,
    g1: GroupElement,
    h1: GroupElement,
    g2: GroupElement,
    h2: GroupElement,
    proof: DleqProof,
    context: bytes = b"",
) -> None:
    """Verify a DLEQ proof; raise :class:`InvalidProofError` on failure."""
    if not 0 <= proof.challenge < group.order or not 0 <= proof.response < group.order:
        raise InvalidProofError("DLEQ proof values out of range")
    a1 = fixed_pow(g1, proof.response) * fixed_pow(h1, -proof.challenge)
    a2 = group.multi_exp([g2, h2], [proof.response, -proof.challenge])
    expected = _challenge(group, g1, h1, g2, h2, a1, a2, context)
    if expected != proof.challenge:
        raise InvalidProofError("DLEQ proof verification failed")
