"""Name-based group lookup used by key managers and RPC request decoding."""

from __future__ import annotations

from typing import Callable, Dict

from ..errors import ConfigurationError
from .base import Group

_GROUPS: Dict[str, Callable[[], Group]] | None = None


def _factories() -> Dict[str, Callable[[], Group]]:
    # Imported lazily so that loading one curve backend does not pay for the
    # other (BN254's tower construction does noticeable work at import time),
    # and memoized so repeated list_groups()/get_group() calls don't redo
    # the submodule lookups.
    global _GROUPS
    if _GROUPS is None:
        from . import bn254, ed25519

        _GROUPS = {
            "ed25519": ed25519.ed25519,
            "bn254g1": bn254.bn254_g1,
            "bn254g2": bn254.bn254_g2,
        }
    return _GROUPS


def get_group(name: str) -> Group:
    """Return the shared instance of the group registered under ``name``."""
    factories = _factories()
    if name not in factories:
        raise ConfigurationError(f"unknown group {name!r}; known: {sorted(factories)}")
    return factories[name]()


def list_groups() -> list[str]:
    """Names of all known groups."""
    return sorted(_factories())
