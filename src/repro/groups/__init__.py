"""Arithmetic group substrate (the role MIRACL Core plays in Thetacrypt).

Exposes a uniform :class:`~repro.groups.base.Group` interface over two curve
families:

* :mod:`repro.groups.ed25519` — prime-order subgroup of the twisted Edwards
  curve edwards25519; used by the ECDH-based schemes (SG02, KG20, CKS05).
* :mod:`repro.groups.bn254` — the pairing-friendly Barreto–Naehrig curve
  BN254 with an optimal ate pairing; used by BLS04 and BZ03.
"""

from .base import Group, GroupElement
from .precompute import (
    FixedBaseTable,
    clear_precompute_cache,
    fixed_base_table,
    fixed_pow,
    precompute_stats,
)
from .registry import get_group, list_groups

__all__ = [
    "Group",
    "GroupElement",
    "FixedBaseTable",
    "clear_precompute_cache",
    "fixed_base_table",
    "fixed_pow",
    "precompute_stats",
    "get_group",
    "list_groups",
]
