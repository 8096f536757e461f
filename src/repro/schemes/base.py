"""Common interfaces for threshold schemes.

The paper groups non-interactive schemes into *cipher*, *signature*, and
*randomness* categories and gives each a three-algorithm interface: generate
a partial result, verify a partial result, combine partial results (§2.2).
The abstract classes here capture exactly that; the interactive KG20 extends
the signature interface with its commit round.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import ConfigurationError, DuplicateShareError, ThresholdNotReachedError

if TYPE_CHECKING:  # pragma: no cover
    from .keygen import KeyMaterial


#: Entries of each scheme's memo of a hash onto its group (CKS05 coin names,
#: BLS04 messages).  One request hashes its input when the node makes its
#: share and again when it checks a peer share or the combined result, so
#: the memo needs an entry per request in flight; the bound also caps the
#: inputs it keeps alive (they are its keys) once their requests are gone.
HASH_MEMO_SIZE = 128


def memo_stats(memo) -> dict:
    """Hit/size counters of an ``lru_cache``-wrapped function."""
    info = memo.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "capacity": info.maxsize,
    }


class SchemeKind(enum.Enum):
    """Top-level categories exposed by the high-level API (§3.5)."""

    CIPHER = "cipher"
    SIGNATURE = "signature"
    RANDOMNESS = "randomness"


@dataclass(frozen=True)
class SchemeInfo:
    """Static metadata about a scheme (the rows of Tables 1 and 3)."""

    name: str
    kind: SchemeKind
    hardness: str  # "DL" or "RSA"
    verification: str  # "ZKP" or "Pairings"
    reference: str
    rounds: int  # communication rounds of the threshold protocol
    default_group: str
    communication_complexity: str  # "O(n)" or "O(n^2)"


class ThresholdScheme(ABC):
    """Base class carrying scheme metadata."""

    info: SchemeInfo

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def kind(self) -> SchemeKind:
        return self.info.kind


class ThresholdCipher(ThresholdScheme):
    """Public-key encryption with distributed decryption (CCA secure)."""

    @abstractmethod
    def encrypt(self, public_key, plaintext: bytes, label: bytes) -> object:
        """Encrypt under the service-wide public key (anyone can call this)."""

    @abstractmethod
    def verify_ciphertext(self, public_key, ciphertext) -> None:
        """Check ciphertext validity (the CCA guard); raise if invalid."""

    @abstractmethod
    def create_decryption_share(self, key_share, ciphertext) -> object:
        """Party-local partial decryption."""

    @abstractmethod
    def verify_decryption_share(self, public_key, ciphertext, share) -> None:
        """Check a partial decryption against the verification keys."""

    @abstractmethod
    def combine(self, public_key, ciphertext, shares: Sequence) -> bytes:
        """Assemble ≥ t+1 valid shares of a checked ciphertext into the plaintext."""


class ThresholdSignature(ThresholdScheme):
    """Digital signatures with a distributed signing algorithm."""

    @abstractmethod
    def partial_sign(self, key_share, message: bytes) -> object:
        """Party-local signature share."""

    @abstractmethod
    def verify_signature_share(self, public_key, message: bytes, share) -> None:
        """Check a signature share; raise InvalidShareError if bogus."""

    @abstractmethod
    def combine(self, public_key, message: bytes, shares: Sequence) -> object:
        """Assemble ≥ t+1 valid shares into a full signature."""

    @abstractmethod
    def verify(self, public_key, message: bytes, signature) -> None:
        """Verify the assembled signature (same output as centralized scheme)."""


class ThresholdCoin(ThresholdScheme):
    """Threshold-random function: coin name → pseudorandom bytes."""

    @abstractmethod
    def create_coin_share(self, key_share, name: bytes) -> object:
        """Party-local coin share with validity proof."""

    @abstractmethod
    def verify_coin_share(self, public_key, name: bytes, share) -> None:
        """Check a coin share's DLEQ proof."""

    @abstractmethod
    def combine(self, public_key, name: bytes, shares: Sequence) -> bytes:
        """Assemble ≥ t+1 valid shares into the coin value."""


def select_shares(shares: Iterable, threshold: int) -> list:
    """Pick t+1 distinct-id shares, raising the precise domain error."""
    unique: dict[int, object] = {}
    for share in shares:
        if share.id in unique:
            raise DuplicateShareError(f"duplicate share id {share.id}")
        unique[share.id] = share
    if len(unique) < threshold + 1:
        raise ThresholdNotReachedError(
            f"need {threshold + 1} shares, got {len(unique)}"
        )
    ordered = sorted(unique)[: threshold + 1]
    return [unique[i] for i in ordered]


# ---------------------------------------------------------------------------
# Registry (Table 1 of the paper).
# ---------------------------------------------------------------------------

SCHEME_TABLE: dict[str, SchemeInfo] = {
    "sg02": SchemeInfo(
        "sg02", SchemeKind.CIPHER, "DL", "ZKP", "Shoup–Gennaro 2002 (TDH2)",
        rounds=1, default_group="ed25519", communication_complexity="O(n)",
    ),
    "bz03": SchemeInfo(
        "bz03", SchemeKind.CIPHER, "DL", "Pairings", "Baek–Zheng 2003",
        rounds=1, default_group="bn254", communication_complexity="O(n)",
    ),
    "sh00": SchemeInfo(
        "sh00", SchemeKind.SIGNATURE, "RSA", "ZKP", "Shoup 2000",
        rounds=1, default_group="rsa", communication_complexity="O(n)",
    ),
    "bls04": SchemeInfo(
        "bls04", SchemeKind.SIGNATURE, "DL", "Pairings",
        "Boneh–Lynn–Shacham 2004",
        rounds=1, default_group="bn254", communication_complexity="O(n)",
    ),
    "kg20": SchemeInfo(
        "kg20", SchemeKind.SIGNATURE, "DL", "ZKP", "Komlo–Goldberg 2020 (FROST)",
        rounds=2, default_group="ed25519", communication_complexity="O(n^2)",
    ),
    "cks05": SchemeInfo(
        "cks05", SchemeKind.RANDOMNESS, "DL", "ZKP",
        "Cachin–Kursawe–Shoup 2005",
        rounds=1, default_group="ed25519", communication_complexity="O(n)",
    ),
}


def get_scheme(name: str) -> ThresholdScheme:
    """Instantiate the scheme registered under ``name``."""
    # Imported here to avoid import cycles between scheme modules and base.
    from . import bls04, bz03, cks05, kg20, sg02, sh00

    factories = {
        "sg02": sg02.Sg02Cipher,
        "bz03": bz03.Bz03Cipher,
        "sh00": sh00.Sh00SignatureScheme,
        "bls04": bls04.Bls04SignatureScheme,
        "kg20": kg20.Kg20SignatureScheme,
        "cks05": cks05.Cks05Coin,
    }
    if name not in factories:
        raise ConfigurationError(
            f"unknown scheme {name!r}; known: {sorted(factories)}"
        )
    return factories[name]()


def list_schemes(kind: SchemeKind | None = None) -> list[str]:
    """Names of registered schemes, optionally filtered by category."""
    return sorted(
        name
        for name, info in SCHEME_TABLE.items()
        if kind is None or info.kind == kind
    )
