"""Pluggable math backends: one registry for the big-int hot path.

Every scheme in the reproduction bottoms out in the same handful of
primitives — modular exponentiation, modular inverse, batch inverse,
Jacobi symbols, modular square roots, and multi-exponentiation products.
This package routes all of them through a selectable *backend* so a
faster substrate speeds up every scheme and the precompute pipeline at
once:

``python``
    The reference backend: CPython's built-in ``pow`` and the PR-1
    Montgomery batch inversion, exactly as the code has always computed.

``batched``
    Same scalar semantics as ``python`` (it delegates one-at-a-time
    calls verbatim, so it can never regress them), plus fused batch
    entry points: shared-window fixed-base tables for many same-base
    modexps, Straus interleaving for Π bᵢ^eᵢ products, and Montgomery
    batch inversion behind every ``batch_modinv``.  The fused paths only
    engage where the operand shape actually amortizes the table build
    (large moduli, enough exponents); anything else falls through to the
    built-ins.

``gmpy2``
    Optional: GMP-backed ``powmod``/``invert``/``jacobi`` wrappers,
    auto-selected at import time when the library is present.

Selection order (first match wins):

1. explicit :func:`set_backend` / ``NodeConfig.math_backend`` (a value
   other than ``"auto"``),
2. the ``REPRO_MATH_BACKEND`` environment variable,
3. ``gmpy2`` when importable, else ``batched``.

Every backend must be **bit-identical** to ``python`` on every primitive
— enforced by the parametrized matrix in ``tests/test_math_backends.py``
— so selection is purely a performance decision, never a correctness one.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from typing import Iterator, Sequence

from ...errors import ConfigurationError
from .pure import PureBackend

logger = logging.getLogger(__name__)

#: Names accepted by :func:`set_backend` and ``NodeConfig.math_backend``.
BACKEND_NAMES = ("auto", "python", "batched", "gmpy2")

#: Environment override consulted by auto-selection.
ENV_VAR = "REPRO_MATH_BACKEND"


def gmpy2_available() -> bool:
    """True when the optional gmpy2 library imports."""
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        return False
    return True


def _build(name: str):
    if name == "python":
        return PureBackend()
    if name == "batched":
        from .batched import BatchedBackend

        return BatchedBackend()
    if name == "gmpy2":
        from .gmpy2_backend import Gmpy2Backend  # raises ImportError if absent

        return Gmpy2Backend()
    raise ConfigurationError(
        f"unknown math backend {name!r}; known: {BACKEND_NAMES}"
    )


def _auto_name() -> tuple[str, str]:
    """(backend name, how it was chosen) for the ``auto`` policy."""
    env = os.environ.get(ENV_VAR, "").strip()
    if env and env != "auto":
        if env not in BACKEND_NAMES:
            logger.warning(
                "%s=%r is not one of %s; ignoring", ENV_VAR, env, BACKEND_NAMES
            )
        elif env == "gmpy2" and not gmpy2_available():
            logger.warning(
                "%s=gmpy2 but gmpy2 does not import; falling back", ENV_VAR
            )
        else:
            return env, "env"
    if gmpy2_available():
        return "gmpy2", "auto"
    return "batched", "auto"


class _State:
    """The process-wide active backend (one, like the precompute caches)."""

    def __init__(self) -> None:
        name, via = _auto_name()
        self.backend = _build(name)
        self.selected_via = via


_STATE = _State()


def active_backend():
    """The backend every routed primitive currently dispatches through."""
    return _STATE.backend


def available_backends() -> list[str]:
    """Concrete backend names usable on this host (test matrix input)."""
    names = ["python", "batched"]
    if gmpy2_available():
        names.append("gmpy2")
    return names


def set_backend(name: str):
    """Select the active backend; ``"auto"`` re-runs auto-selection.

    Raises :class:`ConfigurationError` for unknown names and for
    ``"gmpy2"`` when the library is absent — an explicit request must not
    silently degrade (auto/env selection degrades with a warning instead).
    """
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown math backend {name!r}; known: {BACKEND_NAMES}"
        )
    if name == "auto":
        auto, via = _auto_name()
        _STATE.backend = _build(auto)
        _STATE.selected_via = via
    else:
        if name == "gmpy2" and not gmpy2_available():
            raise ConfigurationError(
                "math backend 'gmpy2' requested but gmpy2 does not import"
            )
        _STATE.backend = _build(name)
        _STATE.selected_via = "explicit"
    return _STATE.backend


@contextmanager
def use_backend(name: str) -> Iterator[object]:
    """Temporarily switch backends (tests and benchmarks)."""
    previous, previous_via = _STATE.backend, _STATE.selected_via
    try:
        yield set_backend(name)
    finally:
        _STATE.backend, _STATE.selected_via = previous, previous_via


def backend_info() -> dict:
    """Snapshot for ``stats()["crypto_backend"]`` and the info metric."""
    return {
        "name": _STATE.backend.name,
        "selected_via": _STATE.selected_via,
        "gmpy2_available": gmpy2_available(),
        "available": available_backends(),
    }


# ---------------------------------------------------------------------------
# Dispatch helpers: the routed call sites use these module-level functions
# so the active backend is one global load away from every primitive.
# ---------------------------------------------------------------------------


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` (negative exponents invert)."""
    return _STATE.backend.modexp(base, exponent, modulus)


def modinv(value: int, modulus: int) -> int:
    """Modular inverse; raises ``ValueError`` when gcd != 1 (like ``pow``)."""
    return _STATE.backend.modinv(value, modulus)


def batch_modinv(values: Sequence[int], modulus: int) -> list[int]:
    """``[v^-1 mod m for v in values]``; ``ValueError`` on any bad value."""
    return _STATE.backend.batch_modinv(values, modulus)


def modexp_many(base: int, exponents: Sequence[int], modulus: int) -> list[int]:
    """Many powers of one base: ``[base^e mod m for e in exponents]``."""
    return _STATE.backend.modexp_many(base, exponents, modulus)


def multiexp(
    pairs: Sequence[tuple[int, int]], modulus: int
) -> int:
    """Fused product ``Π base^exp mod modulus`` over ``(base, exp)`` pairs."""
    return _STATE.backend.multiexp(pairs, modulus)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive ``n``."""
    return _STATE.backend.jacobi(a, n)


def sqrt_mod(a: int, p: int) -> int:
    """Square root mod prime ``p``; ``ValueError`` for a non-residue."""
    return _STATE.backend.sqrt_mod(a, p)
