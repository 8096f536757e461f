"""Lagrange interpolation coefficients over prime fields and the integers.

Two flavours are needed:

* **Field coefficients** for discrete-log schemes (SG02, BLS04, CKS05, KG20,
  BZ03): shares live in Z_q for a public prime q, so coefficients are exact
  field elements.
* **Integer coefficients** for Shoup's RSA scheme (SH00): the group order
  ``m = p'q'`` is secret, so division is impossible.  Shoup's trick scales by
  ``Δ = n!`` so that ``Δ·λ_i`` is an integer.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Mapping, Sequence

from ..errors import CryptoError, DuplicateShareError
from .modular import batch_inverse, inverse_mod


def _check_distinct(xs: Sequence[int]) -> None:
    if len(set(xs)) != len(xs):
        raise DuplicateShareError(f"duplicate interpolation points in {list(xs)}")


def lagrange_coefficient(xs: Sequence[int], i: int, x: int, modulus: int) -> int:
    """Coefficient λ_i such that f(x) = Σ λ_i f(x_i) over Z_modulus."""
    if i not in xs:
        raise CryptoError(f"point {i} not among interpolation points {list(xs)}")
    _check_distinct(xs)
    num, den = 1, 1
    for j in xs:
        if j == i:
            continue
        num = (num * (x - j)) % modulus
        den = (den * (i - j)) % modulus
    return (num * inverse_mod(den, modulus)) % modulus


@lru_cache(maxsize=1024)
def _coefficients_at_zero(xs: tuple[int, ...], modulus: int) -> Mapping[int, int]:
    """One-pass computation: a single inversion serves all coefficients."""
    numerators: list[int] = []
    denominators: list[int] = []
    for i in xs:
        num, den = 1, 1
        for j in xs:
            if j == i:
                continue
            num = num * (-j) % modulus
            den = den * (i - j) % modulus
        numerators.append(num)
        denominators.append(den)
    inverses = batch_inverse(denominators, modulus)
    return MappingProxyType(
        {i: num * inv % modulus for i, num, inv in zip(xs, numerators, inverses)}
    )


def lagrange_coefficients_at_zero(
    xs: Sequence[int], modulus: int
) -> Mapping[int, int]:
    """All coefficients λ_i for recovering f(0) from points ``xs``.

    Every ``combine()`` in the discrete-log schemes interpolates over the
    same handful of signer sets, so results are served from a bounded LRU
    cache keyed by the sorted points and the modulus; the uncached path
    uses Montgomery batch inversion so the whole set costs one
    ``inverse_mod``.  The returned mapping is read-only, safe to hand to
    concurrent callers.
    """
    _check_distinct(xs)
    return _coefficients_at_zero(tuple(sorted(xs)), modulus)


def lagrange_cache_stats() -> dict:
    """Hit/size counters for the at-zero coefficient cache."""
    info = _coefficients_at_zero.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "capacity": info.maxsize,
    }


def clear_lagrange_cache() -> None:
    """Drop all cached coefficient sets and reset counters (tests/benchmarks)."""
    _coefficients_at_zero.cache_clear()


def interpolate_at(
    points: Mapping[int, int], x: int, modulus: int
) -> int:
    """Evaluate the interpolating polynomial through ``points`` at ``x``."""
    xs = list(points)
    total = 0
    for i in xs:
        total = (total + points[i] * lagrange_coefficient(xs, i, x, modulus)) % modulus
    return total


def integer_lagrange_numerator_denominator(
    xs: Sequence[int], i: int, x: int
) -> tuple[int, int]:
    """Exact rational Lagrange coefficient (numerator, denominator) at ``x``."""
    if i not in xs:
        raise CryptoError(f"point {i} not among interpolation points {list(xs)}")
    _check_distinct(xs)
    num, den = 1, 1
    for j in xs:
        if j == i:
            continue
        num *= x - j
        den *= i - j
    return num, den


def shoup_lagrange_coefficient(n: int, xs: Sequence[int], i: int, x: int = 0) -> int:
    """Shoup's integer coefficient ``λ^Δ_i = Δ · λ_i`` with ``Δ = n!``.

    Because every ``(i - j)`` with ``i, j ≤ n`` divides ``n!``, the scaled
    coefficient is an integer even though λ_i itself is rational.
    """
    num, den = integer_lagrange_numerator_denominator(xs, i, x)
    delta = factorial(n)
    scaled, remainder = divmod(delta * num, den)
    if remainder:
        raise CryptoError("Shoup coefficient did not clear the denominator")
    return scaled
