"""Modular arithmetic primitives: inverses, CRT, Jacobi, square roots.

Every big-integer operation is CPython's built-in ``pow`` (modexp and
inverse) or pure Python over it (Montgomery batch inversion, binary
Jacobi, Tonelli–Shanks).  Domain errors — non-invertible values, even
Jacobi moduli, non-residue square roots — raise :class:`CryptoError`.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import CryptoError


def inverse_mod(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo ``modulus``.

    Raises :class:`CryptoError` when no inverse exists (gcd != 1), which in a
    threshold-RSA context usually signals a catastrophically lucky factoring
    event and must not pass silently.
    """
    if modulus <= 0:
        raise CryptoError("modulus must be positive")
    try:
        return pow(value, -1, modulus)
    except ValueError as exc:
        raise CryptoError(f"{value} is not invertible modulo {modulus}") from exc


def batch_inverse(values: "Sequence[int]", modulus: int) -> list[int]:
    """Invert many values with a single modular inversion (Montgomery's trick).

    Computes ``[v^-1 mod modulus for v in values]`` using one modular
    inversion plus ``3(k-1)`` multiplications, instead of ``k``
    inversions.  This is the workhorse behind the cached Lagrange coefficient
    path: all ``t+1`` interpolation denominators share one inversion.

    Raises :class:`CryptoError` if any value is zero or shares a factor with
    the modulus (same contract as :func:`inverse_mod`).  The failure is
    all-or-nothing: a bad value anywhere in the list poisons the shared
    inversion, so no partial results are returned.
    """
    if modulus <= 0:
        raise CryptoError("modulus must be positive")
    if not values:
        return []
    prefix: list[int] = []
    acc = 1
    for value in values:
        if value % modulus == 0:
            raise CryptoError(f"0 is not invertible modulo {modulus}")
        acc = acc * value % modulus
        prefix.append(acc)
    try:
        inv = pow(acc, -1, modulus)
    except ValueError as exc:
        raise CryptoError(str(exc)) from exc
    out = [0] * len(values)
    for idx in range(len(values) - 1, -1, -1):
        before = prefix[idx - 1] if idx else 1
        out[idx] = inv * before % modulus
        inv = inv * values[idx] % modulus
    return out


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus``.

    Negative exponents invert the base first (``CryptoError`` when no
    inverse exists), matching built-in ``pow`` semantics.
    """
    try:
        return pow(base, exponent, modulus)
    except ValueError as exc:
        raise CryptoError(
            f"{base} is not invertible modulo {modulus}"
        ) from exc


def multiexp_mod(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
    """The product ``Π base^exp mod modulus`` over ``(base, exp)`` pairs.

    Negative exponents are handled by inverting the base (``CryptoError``
    when not invertible) — the hot step of SH00's share combination.
    """
    result = 1 % modulus
    try:
        for base, exponent in pairs:
            result = result * pow(base, exponent, modulus) % modulus
    except ValueError as exc:
        raise CryptoError(str(exc)) from exc
    return result


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Combine ``x = r1 mod m1`` and ``x = r2 mod m2`` for coprime moduli.

    Non-coprime moduli make ``m1`` non-invertible modulo ``m2`` and raise
    :class:`CryptoError` (no silent wrong answers for inconsistent inputs).
    """
    m1_inv = inverse_mod(m1, m2)
    diff = (r2 - r1) % m2
    return (r1 + m1 * ((diff * m1_inv) % m2)) % (m1 * m2)


def jacobi_symbol(a: int, n: int) -> int:
    """Compute the Jacobi symbol (a/n) for odd ``n`` > 0."""
    if n <= 0 or n % 2 == 0:
        raise CryptoError("Jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int:
    """Return a square root of ``a`` modulo prime ``p`` (Tonelli–Shanks).

    Raises :class:`CryptoError` when ``a`` is a non-residue.  Used by the
    hash-to-curve routines that need y from a curve equation.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise CryptoError("no square root exists")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli–Shanks for p == 1 (mod 4).
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
            if i == m:
                raise CryptoError("Tonelli-Shanks failed: input not a residue")
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, (b * b) % p
        t, r = (t * c) % p, (r * b) % p
    return r
