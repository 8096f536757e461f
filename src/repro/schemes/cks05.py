"""CKS05 — the Cachin–Kursawe–Shoup threshold coin-tossing scheme.

The Diffie-Hellman construction from "Random Oracles in Constantinople" [8]:
the coin with name C is the pseudorandom value derived from ĝ^x, where
ĝ = H(C) is a random-oracle hash of the name into the group and x is the
shared secret.  Every coin share ĝ^{x_i} carries a DLEQ proof of equality of
discrete logarithms against the party's verification key (§3.5), so invalid
shares are detected immediately.

Default group: Ed25519 (Table 3).  The combined output is a 32-byte
pseudorandom string; :meth:`Cks05Coin.coin_bit` reduces it to one bit for
binary Byzantine-agreement usage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ..errors import ConfigurationError, InvalidShareError, SerializationError
from ..groups.base import Group, GroupElement
from ..groups.precompute import fixed_pow
from ..groups.registry import get_group
from ..mathutils.lagrange import lagrange_coefficients_at_zero
from ..serialization import Reader, encode_bytes, encode_int, encode_str
from ..sharing.shamir import share_secret
from .base import (
    HASH_MEMO_SIZE, SCHEME_TABLE, ThresholdCoin, memo_stats, select_shares,
)
from .dleq import DleqProof, dleq_prove, dleq_verify

_NAME_DOMAIN = b"repro-cks05-name"
_VALUE_DOMAIN = b"repro-cks05-value"


@dataclass(frozen=True)
class Cks05PublicKey:
    """h = g^x plus verification keys h_i = g^{x_i}."""

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
    def from_bytes(data: bytes) -> "Cks05PublicKey":
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
        return Cks05PublicKey(group_name, threshold, parties, h, keys)


@dataclass(frozen=True)
class Cks05KeyShare:
    """Party i's share x_i of the coin secret."""

    id: int
    value: int
    public: Cks05PublicKey


@dataclass(frozen=True)
class Cks05CoinShare:
    """σ_i = ĝ^{x_i} with a DLEQ proof against h_i."""

    id: int
    sigma: GroupElement
    proof: DleqProof

    def to_bytes(self) -> bytes:
        return (
            encode_int(self.id)
            + encode_bytes(self.sigma.to_bytes())
            + self.proof.to_bytes()
        )

    @staticmethod
    def from_bytes(data: bytes, group: Group) -> "Cks05CoinShare":
        reader = Reader(data)
        share_id = reader.read_int()
        sigma = group.element_from_bytes(reader.read_bytes())
        proof = DleqProof.read_from(reader)
        reader.finish()
        return Cks05CoinShare(share_id, sigma, proof)


def keygen(
    threshold: int, parties: int, group_name: str = "ed25519"
) -> tuple[Cks05PublicKey, list[Cks05KeyShare]]:
    """Trusted-dealer key generation for CKS05."""
    group = get_group(group_name)
    x = group.random_scalar()
    shares = share_secret(x, threshold, parties, group.order)
    public = Cks05PublicKey(
        group_name,
        threshold,
        parties,
        fixed_pow(group.generator(), x),
        tuple(fixed_pow(group.generator(), s.value) for s in shares),
    )
    return public, [Cks05KeyShare(s.id, s.value, public) for s in shares]


@lru_cache(maxsize=HASH_MEMO_SIZE)
def _hash_name(group: Group, name: bytes) -> GroupElement:
    """ĝ = H(name); memoized, so a node that creates its share and then
    verifies its peers' shares of one coin hashes the name once."""
    return group.hash_to_element(_NAME_DOMAIN + name)


def hash_memo_stats() -> dict:
    """Hit/size counters for the coin-name hash memo."""
    return memo_stats(_hash_name)


class Cks05Coin(ThresholdCoin):
    """The DH-based coin against the :class:`ThresholdCoin` interface."""

    info = SCHEME_TABLE["cks05"]

    def create_coin_share(
        self, key_share: Cks05KeyShare, name: bytes
    ) -> Cks05CoinShare:
        group = key_share.public.group
        g_hat = _hash_name(group, name)
        r = group.random_scalar()
        sigma, commitment = g_hat.powers(key_share.value, r)
        proof = dleq_prove(
            group,
            group.generator(),
            g_hat,
            key_share.value,
            context=name,
            h1=key_share.public.verification_key(key_share.id),
            h2=sigma,
            commitment=(r, commitment),
        )
        return Cks05CoinShare(key_share.id, sigma, proof)

    def verify_coin_share(
        self, public_key: Cks05PublicKey, name: bytes, share: Cks05CoinShare
    ) -> None:
        if not 1 <= share.id <= public_key.parties:
            raise InvalidShareError(f"share id {share.id} out of range")
        group = public_key.group
        g_hat = _hash_name(group, name)
        dleq_verify(
            group,
            group.generator(),
            public_key.verification_key(share.id),
            g_hat,
            share.sigma,
            share.proof,
            context=name,
        )

    def combine(
        self,
        public_key: Cks05PublicKey,
        name: bytes,
        shares: Sequence[Cks05CoinShare],
    ) -> bytes:
        group = public_key.group
        chosen = select_shares(shares, public_key.threshold)
        ids = [share.id for share in chosen]
        coefficients = lagrange_coefficients_at_zero(ids, group.order)
        value = group.multi_exp(
            [share.sigma for share in chosen],
            [coefficients[share.id] for share in chosen],
        )
        return hashlib.sha256(
            _VALUE_DOMAIN + encode_bytes(name) + encode_bytes(value.to_bytes())
        ).digest()

    @staticmethod
    def coin_bit(coin_value: bytes) -> int:
        """Reduce a combined coin to a single unbiased bit."""
        return coin_value[0] & 1
