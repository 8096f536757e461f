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
    install_table,
    precompute_stats,
    snapshot_tables,
)
from .registry import get_group, list_groups

# The table-persistence exports resolve lazily: .tables imports the
# storage layer, which imports the schemes, which import this package —
# a module-level import here would close that cycle during interpreter
# start-up.
_TABLES_EXPORTS = ("TableStore", "table_blob", "table_from_blob")


def __getattr__(name: str):
    if name in _TABLES_EXPORTS:
        from . import tables

        return getattr(tables, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Group",
    "GroupElement",
    "FixedBaseTable",
    "TableStore",
    "clear_precompute_cache",
    "fixed_base_table",
    "fixed_pow",
    "install_table",
    "precompute_stats",
    "snapshot_tables",
    "table_blob",
    "table_from_blob",
    "get_group",
    "list_groups",
]
