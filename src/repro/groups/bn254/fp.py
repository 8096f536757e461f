"""Flat extension-field kernel for BN254: Fp2, Fp6, Fp12 on tuples of ints.

Fp2 = Fp[u]/(u² + 1); Fp6 = Fp2[v]/(v³ − ξ) with ξ = 9 + u;
Fp12 = Fp6[w]/(w² − v).  A value is a tuple of 2, 6 or 12 reduced ints in
the order ``to_bytes`` writes them: Fp12 = (c0 | c1), each Fp6 = (c0, c1,
c2), each Fp2 = (real, imaginary).  The ``fp2_*``/``fp6_*``/``fp12_*``
functions are the arithmetic — Karatsuba with lazy reduction, one ``% P``
per output coefficient — and what the pairing and G2 run on.  ``Fp2``,
``Fp6`` and ``Fp12`` are thin value wrappers around such a tuple for callers
that want operators; they hold no arithmetic of their own.
"""

from __future__ import annotations

from ...errors import CryptoError
from ...mathutils.modular import sqrt_mod_prime

#: Base-field prime of alt_bn128 (the BN254 instantiation used by Ethereum).
P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
#: Prime group order r (both G1 and G2 subgroups have this order).
R = 21888242871839275222246405745257275088548364400416034343698204186575808495617
#: BN parameter x: p and r are degree-4 polynomials in x.
BN_X = 4965661367192848881
_INV2 = (P + 1) // 2

FP2_ZERO, FP2_ONE = (0, 0), (1, 0)
FP6_ONE = FP2_ONE + (0,) * 4
FP12_ONE = FP2_ONE + (0,) * 10


def vec_add(a: tuple, b: tuple) -> tuple:
    return tuple([(x + y) % P for x, y in zip(a, b)])


def vec_sub(a: tuple, b: tuple) -> tuple:
    return tuple([(x - y) % P for x, y in zip(a, b)])


def vec_neg(a: tuple) -> tuple:
    return tuple([-x % P for x in a])


def _pow(mul, sqr, one: tuple, base: tuple, exponent: int) -> tuple:
    result = one
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        base = sqr(base)
        exponent >>= 1
    return result


def fp2_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0, t1 = a0 * b0, a1 * b1
    return (t0 - t1) % P, ((a0 + a1) * (b0 + b1) - t0 - t1) % P


def fp2_sqr(a):
    a0, a1 = a
    return (a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P


def fp2_mul_xi(a):
    """Multiply by ξ = 9 + u (the Fp6 non-residue)."""
    a0, a1 = a
    return (9 * a0 - a1) % P, (a0 + 9 * a1) % P


def fp2_conj(a):
    return a[0], -a[1] % P


def fp2_inv(a):
    a0, a1 = a
    norm = (a0 * a0 + a1 * a1) % P
    if norm == 0:
        raise CryptoError("inversion of zero in Fp2")
    inv = pow(norm, -1, P)
    return a0 * inv % P, -a1 * inv % P


def fp2_batch_inv(values: list) -> list:
    """The inverses of the Fp2 ``values`` for one ``pow``: 1/a = ā/N(a), with
    Montgomery's trick on the norms N(a) ∈ Fp.  A zero among them raises
    :class:`CryptoError`, as :func:`fp2_inv` does."""
    norms = [(a0 * a0 + a1 * a1) % P for a0, a1 in values]
    prefix, acc = [], 1
    for norm in norms:
        prefix.append(acc)
        acc = acc * norm % P
    if not acc:
        raise CryptoError("inversion of zero in Fp2")
    inv = pow(acc, -1, P)
    out = [None] * len(values)
    for i in range(len(values) - 1, -1, -1):
        norm_inv = inv * prefix[i] % P
        inv = inv * norms[i] % P
        a0, a1 = values[i]
        out[i] = a0 * norm_inv % P, -a1 * norm_inv % P
    return out


def fp2_is_square(a) -> bool:
    """Euler criterion: a^((p²−1)/2) = N(a)^((p−1)/2) for the norm N(a) ∈ Fp."""
    norm = (a[0] * a[0] + a[1] * a[1]) % P
    return norm == 0 or pow(norm, (P - 1) // 2, P) == 1


def fp2_sqrt(a):
    """Square root via the complex method (p ≡ 3 mod 4)."""
    a0, a1 = a
    if a1 == 0:
        # Purely real: either √a0 exists in Fp, or √(−a0)·u works since
        # (y·u)² = −y².
        if a0 == 0 or pow(a0, (P - 1) // 2, P) == 1:
            return sqrt_mod_prime(a0, P), 0
        return 0, sqrt_mod_prime(-a0 % P, P)
    # |a| = sqrt(a0² + a1²) in Fp (CryptoError for a non-square); exactly one
    # of (a0 ± |a|)/2 is a residue x², and y = a1/(2x) gives (x + y·u)² = a.
    alpha = sqrt_mod_prime((a0 * a0 + a1 * a1) % P, P)
    delta = (a0 + alpha) * _INV2 % P
    if pow(delta, (P - 1) // 2, P) != 1:
        delta = (a0 - alpha) * _INV2 % P
    x = sqrt_mod_prime(delta, P)
    return x, a1 * pow(2 * x, -1, P) % P


def _mul6(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """Unreduced Fp6 product: Karatsuba over Fp2 and Fp, 18 int multiplications."""
    p, q = a0 * b0, a1 * b1
    t0r, t0i = p - q, (a0 + a1) * (b0 + b1) - p - q
    p, q = a2 * b2, a3 * b3
    t1r, t1i = p - q, (a2 + a3) * (b2 + b3) - p - q
    p, q = a4 * b4, a5 * b5
    t2r, t2i = p - q, (a4 + a5) * (b4 + b5) - p - q
    # c0 = t0 + ξ((A1 + A2)(B1 + B2) − t1 − t2)
    x0, x1, y0, y1 = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    p, q = x0 * y0, x1 * y1
    sr, si = p - q - t1r - t2r, (x0 + x1) * (y0 + y1) - p - q - t1i - t2i
    c0r, c0i = t0r + 9 * sr - si, t0i + sr + 9 * si
    # c1 = (A0 + A1)(B0 + B1) − t0 − t1 + ξ·t2
    x0, x1, y0, y1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    p, q = x0 * y0, x1 * y1
    c1r = p - q - t0r - t1r + 9 * t2r - t2i
    c1i = (x0 + x1) * (y0 + y1) - p - q - t0i - t1i + t2r + 9 * t2i
    # c2 = (A0 + A2)(B0 + B2) − t0 − t2 + t1
    x0, x1, y0, y1 = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    p, q = x0 * y0, x1 * y1
    c2r = p - q - t0r - t2r + t1r
    c2i = (x0 + x1) * (y0 + y1) - p - q - t0i - t2i + t1i
    return c0r, c0i, c1r, c1i, c2r, c2i


def _mul6_sparse(a0, a1, a2, a3, a4, a5, b0, b1, c0, c1):
    """Unreduced Fp6 product A·(b + c·v): 5 Fp2 multiplications."""
    p, q = a0 * b0, a1 * b1
    t0r, t0i = p - q, (a0 + a1) * (b0 + b1) - p - q
    p, q = a2 * c0, a3 * c1
    t1r, t1i = p - q, (a2 + a3) * (c0 + c1) - p - q
    x0, x1, y0, y1 = a0 + a2, a1 + a3, b0 + c0, b1 + c1
    p, q = x0 * y0, x1 * y1
    mr, mi = p - q - t0r - t1r, (x0 + x1) * (y0 + y1) - p - q - t0i - t1i
    p, q = a4 * b0, a5 * b1
    ur, ui = p - q, (a4 + a5) * (b0 + b1) - p - q
    p, q = a4 * c0, a5 * c1
    wr, wi = p - q, (a4 + a5) * (c0 + c1) - p - q
    return t0r + 9 * wr - wi, t0i + wr + 9 * wi, mr, mi, t1r + ur, t1i + ui


def fp6_mul(a, b):
    return tuple([c % P for c in _mul6(*a, *b)])


def fp6_sqr(a):
    return fp6_mul(a, a)


def fp6_mul_by_v(a):
    """Multiply by v: (c0, c1, c2) ↦ (ξ·c2, c0, c1)."""
    return fp2_mul_xi(a[4:]) + a[:4]


def fp6_scale(a, k):
    return fp2_mul(a[:2], k) + fp2_mul(a[2:4], k) + fp2_mul(a[4:], k)


def fp6_inv(a):
    a0, a1, a2 = a[:2], a[2:4], a[4:]
    t0 = vec_sub(fp2_sqr(a0), fp2_mul_xi(fp2_mul(a1, a2)))
    t1 = vec_sub(fp2_mul_xi(fp2_sqr(a2)), fp2_mul(a0, a1))
    t2 = vec_sub(fp2_sqr(a1), fp2_mul(a0, a2))
    cross = fp2_mul_xi(vec_add(fp2_mul(a2, t1), fp2_mul(a1, t2)))
    return fp6_scale(t0 + t1 + t2, fp2_inv(vec_add(fp2_mul(a0, t0), cross)))


def _frobenius(a, powers):
    """Conjugate each Fp2 coefficient and scale the one at w^k by γ^k."""
    out = ()
    for i, k in enumerate(powers):
        out += fp2_mul(fp2_conj(a[2 * i : 2 * i + 2]), _GAMMA[k])
    return out


def fp12_mul(a, b):
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = b
    t0, t1, t2, t3, t4, t5 = _mul6(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    s0, s1, s2, s3, s4, s5 = _mul6(a6, a7, a8, a9, a10, a11, b6, b7, b8, b9, b10, b11)
    m0, m1, m2, m3, m4, m5 = _mul6(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11,
    )
    # (A0 + A1·w)(B0 + B1·w) = A0B0 + v·A1B1 + ((A0 + A1)(B0 + B1) − A0B0 − A1B1)·w
    return (
        (t0 + 9 * s4 - s5) % P, (t1 + s4 + 9 * s5) % P,
        (t2 + s0) % P, (t3 + s1) % P, (t4 + s2) % P, (t5 + s3) % P,
        (m0 - t0 - s0) % P, (m1 - t1 - s1) % P, (m2 - t2 - s2) % P,
        (m3 - t3 - s3) % P, (m4 - t4 - s4) % P, (m5 - t5 - s5) % P,
    )


def fp12_sqr(a):
    """Complex squaring: c0 = (A0 + A1)(A0 + v·A1) − t − v·t, c1 = 2t, t = A0·A1."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    t0, t1, t2, t3, t4, t5 = _mul6(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11)
    m0, m1, m2, m3, m4, m5 = _mul6(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        a0 + 9 * a10 - a11, a1 + a10 + 9 * a11, a2 + a6, a3 + a7, a4 + a8, a5 + a9,
    )
    return (
        (m0 - t0 - 9 * t4 + t5) % P, (m1 - t1 - t4 - 9 * t5) % P,
        (m2 - t2 - t0) % P, (m3 - t3 - t1) % P, (m4 - t4 - t2) % P, (m5 - t5 - t3) % P,
        2 * t0 % P, 2 * t1 % P, 2 * t2 % P, 2 * t3 % P, 2 * t4 % P, 2 * t5 % P,
    )


def fp12_mul_line(f, b0, b1, c0, c1):
    """f·(1 + b·w + c·w³) for b = (b0, b1), c = (c0, c1) ∈ Fp2: a Miller line
    divided by its constant term.

    With L = 1 + (b, c, 0)·w, (F0 + F1·w)·L = F0 + v·F1·(b, c, 0) +
    (F1 + F0·(b, c, 0))·w: two sparse Fp6 products of 5 Fp2 products each.
    """
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11 = f
    s0, s1, s2, s3, s4, s5 = _mul6_sparse(f6, f7, f8, f9, f10, f11, b0, b1, c0, c1)
    m0, m1, m2, m3, m4, m5 = _mul6_sparse(f0, f1, f2, f3, f4, f5, b0, b1, c0, c1)
    return (
        (f0 + 9 * s4 - s5) % P, (f1 + s4 + 9 * s5) % P,
        (f2 + s0) % P, (f3 + s1) % P, (f4 + s2) % P, (f5 + s3) % P,
        (f6 + m0) % P, (f7 + m1) % P, (f8 + m2) % P,
        (f9 + m3) % P, (f10 + m4) % P, (f11 + m5) % P,
    )


def _sqr4(a0, a1, b0, b1):
    """Unreduced (A + B·y)² in Fp4 = Fp2[y]/(y² − ξ): (A² + ξB², 2AB)."""
    ar, ai = (a0 + a1) * (a0 - a1), 2 * a0 * a1
    br, bi = (b0 + b1) * (b0 - b1), 2 * b0 * b1
    c0, c1 = a0 + b0, a1 + b1
    return (
        ar + 9 * br - bi, ai + br + 9 * bi,
        (c0 + c1) * (c0 - c1) - ar - br, 2 * c0 * c1 - ai - bi,
    )


def fp12_cyclotomic_sqr(a):
    """Granger–Scott squaring; valid only where a^(p⁶+1) = 1 (after the easy part)."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    t0, t1, t2, t3 = _sqr4(a0, a1, a8, a9)
    t4, t5, t6, t7 = _sqr4(a6, a7, a4, a5)
    t8, t9, t10, t11 = _sqr4(a2, a3, a10, a11)
    return (
        (3 * t0 - 2 * a0) % P, (3 * t1 - 2 * a1) % P,
        (3 * t4 - 2 * a2) % P, (3 * t5 - 2 * a3) % P,
        (3 * t8 - 2 * a4) % P, (3 * t9 - 2 * a5) % P,
        (3 * (9 * t10 - t11) + 2 * a6) % P, (3 * (t10 + 9 * t11) + 2 * a7) % P,
        (3 * t2 + 2 * a8) % P, (3 * t3 + 2 * a9) % P,
        (3 * t6 + 2 * a10) % P, (3 * t7 + 2 * a11) % P,
    )


def fp12_conj(a):
    """The p⁶-Frobenius; equals inversion on the cyclotomic subgroup."""
    return a[:6] + vec_neg(a[6:])


def fp12_inv(a):
    a0, a1 = a[:6], a[6:]
    inv = fp6_inv(vec_sub(fp6_sqr(a0), fp6_mul_by_v(fp6_sqr(a1))))
    return fp6_mul(a0, inv) + vec_neg(fp6_mul(a1, inv))


def fp12_frobenius(a, times: int = 1):
    for _ in range(times):
        a = _frobenius(a, (0, 2, 4, 1, 3, 5))
    return a


class _Tower:
    """A field element as a value object: ``v`` is the flat coefficient tuple."""

    __slots__ = ("v",)

    def __init_subclass__(cls, *, one: tuple, mul, sqr, inv):
        cls._ONE = one
        cls._mul, cls._sqr, cls._inv = map(staticmethod, (mul, sqr, inv))

    @classmethod
    def _wrap(cls, v: tuple):
        obj = object.__new__(cls)
        obj.v = v
        return obj

    @classmethod
    def zero(cls):
        return cls._wrap((0,) * len(cls._ONE))

    @classmethod
    def one(cls):
        return cls._wrap(cls._ONE)

    def is_zero(self) -> bool:
        return not any(self.v)

    def __add__(self, other):
        return self._wrap(vec_add(self.v, other.v))

    def __sub__(self, other):
        return self._wrap(vec_sub(self.v, other.v))

    def __neg__(self):
        return self._wrap(vec_neg(self.v))

    def __mul__(self, other):
        return self._wrap(self._mul(self.v, other.v))

    def square(self):
        return self._wrap(self._sqr(self.v))

    def inverse(self):
        return self._wrap(self._inv(self.v))

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return self._wrap(_pow(self._mul, self._sqr, self._ONE, self.v, exponent))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.v == other.v

    def __hash__(self) -> int:
        return hash(self.v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}{self.v}"


class Fp2(_Tower, one=FP2_ONE, mul=fp2_mul, sqr=fp2_sqr, inv=fp2_inv):
    """Element c0 + c1·u of Fp2 with u² = −1."""

    __slots__ = ()

    def __init__(self, c0: int, c1: int):
        self.v = (c0 % P, c1 % P)

    c0 = property(lambda self: self.v[0])
    c1 = property(lambda self: self.v[1])

    def conjugate(self) -> "Fp2":
        return Fp2._wrap(fp2_conj(self.v))

    def mul_xi(self) -> "Fp2":
        return Fp2._wrap(fp2_mul_xi(self.v))

    def is_square(self) -> bool:
        return fp2_is_square(self.v)

    def sqrt(self) -> "Fp2":
        return Fp2._wrap(fp2_sqrt(self.v))


class Fp6(_Tower, one=FP6_ONE, mul=fp6_mul, sqr=fp6_sqr, inv=fp6_inv):
    """Element c0 + c1·v + c2·v² of Fp6 with v³ = ξ."""

    __slots__ = ()

    def __init__(self, c0: Fp2, c1: Fp2, c2: Fp2):
        self.v = c0.v + c1.v + c2.v

    def mul_by_v(self) -> "Fp6":
        return Fp6._wrap(fp6_mul_by_v(self.v))

    def frobenius(self) -> "Fp6":
        return Fp6._wrap(_frobenius(self.v, (0, 2, 4)))


class Fp12(_Tower, one=FP12_ONE, mul=fp12_mul, sqr=fp12_sqr, inv=fp12_inv):
    """Element c0 + c1·w of Fp12 with w² = v; GT values are these."""

    __slots__ = ()

    def __init__(self, c0: Fp6, c1: Fp6):
        self.v = c0.v + c1.v

    @staticmethod
    def from_int(value: int) -> "Fp12":
        return Fp12._wrap((value % P,) + (0,) * 11)

    def is_one(self) -> bool:
        return self.v == FP12_ONE

    def conjugate(self) -> "Fp12":
        return Fp12._wrap(fp12_conj(self.v))

    def frobenius(self) -> "Fp12":
        return Fp12._wrap(fp12_frobenius(self.v))

    def frobenius2(self) -> "Fp12":
        return Fp12._wrap(fp12_frobenius(self.v, 2))

    def to_bytes(self) -> bytes:
        """Canonical 384-byte encoding (12 Fp coefficients, big-endian)."""
        return b"".join(c.to_bytes(32, "big") for c in self.v)


XI = Fp2(9, 1)

# Frobenius constants: γ = ξ^((p−1)/6) = w^(p−1), so (g·w^k)^p = ḡ·γ^k·w^k.
FROB12_C1 = XI ** ((P - 1) // 6)
FROB6_C1 = FROB12_C1**2
_GAMMA = tuple((FROB12_C1**k).v for k in range(6))

# Twist Frobenius constants (untwist–Frobenius–twist endomorphism on E'(Fp2)).
TWIST_FROB_X = FROB12_C1**2
TWIST_FROB_Y = FROB12_C1**3
