"""Unified trusted-dealer key generation across all schemes.

The paper's methodology assumes "a setup phase during which a trusted dealer
distributes the key material for all schemes" (§4.4).  This module is that
dealer.  A distributed alternative (no dealer) is provided by
:mod:`repro.schemes.dealing`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from . import bls04, bz03, cks05, kg20, sg02, sh00


@dataclass(frozen=True)
class KeyMaterial:
    """Everything the dealer outputs for one scheme instance."""

    scheme: str
    public_key: object
    key_shares: tuple

    @property
    def threshold(self) -> int:
        return self.public_key.threshold

    @property
    def parties(self) -> int:
        return self.public_key.parties

    def share_for(self, party_id: int):
        """The private share belonging to ``party_id`` (1-based)."""
        return self.key_shares[party_id - 1]


def generate_keys(
    scheme: str,
    threshold: int,
    parties: int,
    group_name: str | None = None,
    rsa_bits: int = 2048,
    rsa_modulus=None,
    allow_generate: bool = False,
) -> KeyMaterial:
    """Deal key material for ``scheme`` with a (t, n) access structure.

    ``group_name`` selects the curve for the DL/ZKP schemes (default
    Ed25519, per Table 3); pairing schemes always use BN254; SH00 takes
    ``rsa_bits`` or an explicit ``rsa_modulus``.
    """
    if scheme == "sg02":
        public, shares = sg02.keygen(threshold, parties, group_name or "ed25519")
    elif scheme == "bz03":
        public, shares = bz03.keygen(threshold, parties)
    elif scheme == "sh00":
        public, shares = sh00.keygen(
            threshold,
            parties,
            bits=rsa_bits,
            modulus=rsa_modulus,
            allow_generate=allow_generate,
        )
    elif scheme == "bls04":
        public, shares = bls04.keygen(threshold, parties)
    elif scheme == "kg20":
        public, shares = kg20.keygen(threshold, parties, group_name or "ed25519")
    elif scheme == "cks05":
        public, shares = cks05.keygen(threshold, parties, group_name or "ed25519")
    else:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    return KeyMaterial(scheme, public, tuple(shares))

