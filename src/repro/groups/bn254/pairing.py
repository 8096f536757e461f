"""Optimal ate pairing on BN254.

The Miller loop steps T on the twist E′(Fp2) in Jacobian coordinates and
never inverts: each step yields a line a + b·w + c·w³ (a, b, c ∈ Fp2) that
differs from the affine line through the untwisted points only by an Fp2
factor, which the final exponentiation kills, and is multiplied into f by
the sparse product of :func:`fp.fp12_mul_sparse`.  The stepping depends on
the G2 argument Q alone, so it runs once per point: the first loop that
meets Q stores its 102 line coefficients on the element, and every loop
evaluates them at P.  All pairs of a product share one squaring of f per
loop bit.  The final exponentiation is the
Devegili–Scott–Dahab chain with Granger–Scott cyclotomic squarings for its
three 63-bit powers of the BN parameter x.
"""

from __future__ import annotations

from ...errors import CryptoError
from .fp import (
    BN_X,
    FP2_ONE,
    FP2_ZERO,
    FP12_ONE,
    P,
    R,
    TWIST_FROB_X,
    TWIST_FROB_Y,
    Fp12,
    fp2_conj,
    fp2_mul,
    fp2_sqr,
    fp12_conj,
    fp12_cyclotomic_sqr,
    fp12_frobenius,
    fp12_inv,
    fp12_mul,
    fp12_mul_sparse,
    fp12_sqr,
    vec_neg,
    vec_sub,
)
from .g1 import BN254G1Element, BN254G1Group, bn254_g1
from .g2 import BN254G2Element, BN254G2Group, bn254_g2, jac_double

#: Optimal ate loop count 6x + 2.
ATE_LOOP_COUNT = 6 * BN_X + 2

_LOOP_BITS = bin(ATE_LOOP_COUNT)[3:]  # below the most-significant bit
_X_BITS = bin(BN_X)[3:]
_TWIST_FROB = (TWIST_FROB_X.v, TWIST_FROB_Y.v)


def _evaluate(z3, slope, const, xp: int, yp: int):
    """(a, b, c) of −z3·y_P + slope·x_P·w + const·w³."""
    return (
        (-z3[0] * yp % P, -z3[1] * yp % P),
        (slope[0] * xp % P, slope[1] * xp % P),
        const,
    )


def _double_step(t, xp: int, yp: int):
    """T ← 2T and the tangent at T=(X, Y, Z), scaled by Z₃Z² (Z₃ = 2YZ):
    −(Z₃Z²)·y_P + (3X²Z²)·x_P·w + (2Y² − 3X³)·w³."""
    x, y, z = t
    doubled = jac_double(t)
    if doubled[2] == FP2_ZERO:
        raise CryptoError("degenerate pairing input: vertical tangent")
    e = fp2_sqr(x)
    e = (3 * e[0], 3 * e[1])
    zz, yy, ex = fp2_sqr(z), fp2_sqr(y), fp2_mul(e, x)
    const = (2 * yy[0] - ex[0], 2 * yy[1] - ex[1])
    return doubled, _evaluate(fp2_mul(doubled[2], zz), fp2_mul(e, zz), const, xp, yp)


def _add_step(t, q, xp: int, yp: int):
    """T ← T + Q for affine Q=(x₂, y₂) and the chord, scaled by Z₃ = Z·H:
    −Z₃·y_P + r·x_P·w + (Z₃y₂ − r·x₂)·w³ with H = x₂Z² − X, r = y₂Z³ − Y."""
    x, y, z = t
    x2, y2 = q
    zz = fp2_sqr(z)
    h = vec_sub(fp2_mul(x2, zz), x)
    if h == FP2_ZERO:
        raise CryptoError("degenerate pairing input: G2 point of small order")
    r = vec_sub(fp2_mul(y2, fp2_mul(z, zz)), y)
    hh = fp2_sqr(h)
    hhh, v, rr = fp2_mul(h, hh), fp2_mul(x, hh), fp2_sqr(r)
    x3 = ((rr[0] - hhh[0] - 2 * v[0]) % P, (rr[1] - hhh[1] - 2 * v[1]) % P)
    y3 = vec_sub(fp2_mul(r, (v[0] - x3[0], v[1] - x3[1])), fp2_mul(y, hhh))
    z3 = fp2_mul(z, h)
    const = vec_sub(fp2_mul(z3, y2), fp2_mul(r, x2))
    return (x3, y3, z3), _evaluate(z3, r, const, xp, yp)


def _build_lines(q) -> list:
    """The Miller lines of affine Q, as coefficient triples (A, B, C).

    Entry k < 64 holds loop bit k's tangent, then its chord if the bit is
    set; the last entry holds the two Frobenius chords.  None of the
    stepping depends on P: a line evaluated at x_P = y_P = 1 is its
    coefficients, and at P it is (A·y_P, B·x_P, C).
    """
    t = (*q, FP2_ONE)
    lines = []
    for bit in _LOOP_BITS:
        t, tangent = _double_step(t, 1, 1)
        if bit == "1":
            t, chord = _add_step(t, q, 1, 1)
            lines.append((tangent, chord))
        else:
            lines.append((tangent,))
    # π(Q) and −π²(Q): the untwist–Frobenius–twist endomorphism on E′.
    x1, y1 = (fp2_mul(fp2_conj(c), g) for c, g in zip(q, _TWIST_FROB))
    x2, y2 = (fp2_mul(fp2_conj(c), g) for c, g in zip((x1, y1), _TWIST_FROB))
    t, first = _add_step(t, (x1, y1), 1, 1)
    _, second = _add_step(t, (x2, vec_neg(y2)), 1, 1)
    lines.append((first, second))
    return lines


def _lines(q: BN254G2Element) -> list:
    """Q's lines, built by the first Miller loop that meets Q and kept on it.

    A degenerate Q raises :class:`CryptoError` here on every call, because
    nothing is stored until the whole table is built.
    """
    lines = q._lines
    if lines is None:
        lines = q._lines = _build_lines(q.affine())
    return lines


def _multiply_lines(f: tuple, lines, xp: int, yp: int) -> tuple:
    """f times each of ``lines`` evaluated at P = (x_P, y_P)."""
    for (a0, a1), (b0, b1), c in lines:
        f = fp12_mul_sparse(f, (a0 * yp % P, a1 * yp % P), (b0 * xp % P, b1 * xp % P), c)
    return f


def _miller(pairs) -> tuple:
    """Π f_{6x+2,Q}(P)·l_{[6x+2]Q,π(Q)}(P)·l_{[6x+2]Q+π(Q),−π²(Q)}(P) over the
    pairs with no infinity member, as a flat Fp12 value."""
    terms = [
        (_lines(q), *p.affine())
        for p, q in pairs
        if not (p.is_infinity() or q.infinity)
    ]
    f = FP12_ONE
    for k in range(len(_LOOP_BITS)):
        f = fp12_sqr(f)
        for lines, xp, yp in terms:
            f = _multiply_lines(f, lines[k], xp, yp)
    for lines, xp, yp in terms:
        f = _multiply_lines(f, lines[-1], xp, yp)
    return f


def _miller_loop(q: BN254G2Element, p: BN254G1Element) -> Fp12:
    return Fp12._wrap(_miller([(p, q)]))


def _cyclotomic_pow_x(f: tuple) -> tuple:
    result = f
    for bit in _X_BITS:
        result = fp12_cyclotomic_sqr(result)
        if bit == "1":
            result = fp12_mul(result, f)
    return result


def _final_exp(f: tuple) -> tuple:
    """f ↦ f^((p¹² − 1)/r) via easy part + DSD hard part."""
    if not any(f):
        raise CryptoError("pairing produced zero (degenerate input)")
    mul, sqr, frob = fp12_mul, fp12_cyclotomic_sqr, fp12_frobenius
    # Easy part: f^(p⁶ − 1)(p² + 1); f is in the cyclotomic subgroup after it.
    f = mul(fp12_conj(f), fp12_inv(f))
    f = mul(frob(f, 2), f)
    # Hard part (Devegili–Scott–Dahab addition chain for BN with x > 0).
    fx = _cyclotomic_pow_x(f)
    fx2 = _cyclotomic_pow_x(fx)
    fx3 = _cyclotomic_pow_x(fx2)
    y0 = mul(mul(frob(f), frob(f, 2)), frob(f, 3))
    y1 = fp12_conj(f)
    y2 = frob(fx2, 2)
    y3 = fp12_conj(frob(fx))
    y4 = fp12_conj(mul(fx, frob(fx2)))
    y5 = fp12_conj(fx2)
    y6 = fp12_conj(mul(fx3, frob(fx3)))
    t0 = mul(mul(sqr(y6), y4), y5)
    t1 = mul(mul(y3, y5), t0)
    t0 = mul(t0, y2)
    t1 = sqr(mul(sqr(t1), t0))
    t0 = sqr(mul(t1, y1))
    return mul(t0, mul(t1, y0))


def _final_exponentiation(f: Fp12) -> Fp12:
    return Fp12._wrap(_final_exp(f.v))


def pairing(p: BN254G1Element, q: BN254G2Element) -> Fp12:
    """The optimal ate pairing e(P, Q) ∈ GT ⊂ Fp12."""
    if p.is_infinity() or q.infinity:
        return Fp12.one()
    return Fp12._wrap(_final_exp(_miller([(p, q)])))


def pairing_check(pairs: list[tuple[BN254G1Element, BN254G2Element]]) -> bool:
    """True iff Π e(P_i, Q_i) == 1 (one Miller loop, one final exponentiation)."""
    return _final_exp(_miller(pairs)) == FP12_ONE


class BilinearGroup:
    """Bundle of (G1, G2, GT, e) used by the pairing-based schemes.

    Mirrors how MIRACL exposes a pairing-friendly curve: two source groups
    with independent generators plus the bilinear map between them.
    """

    name = "bn254"
    order = R
    key_bits = 254

    def __init__(self) -> None:
        self.g1: BN254G1Group = bn254_g1()
        self.g2: BN254G2Group = bn254_g2()

    def pair(self, p: BN254G1Element, q: BN254G2Element) -> Fp12:
        return pairing(p, q)

    def pair_check(
        self, pairs: list[tuple[BN254G1Element, BN254G2Element]]
    ) -> bool:
        return pairing_check(pairs)

    def gt_identity(self) -> Fp12:
        return Fp12.one()


_BILINEAR = BilinearGroup()


def bn254_pairing() -> BilinearGroup:
    """Return the shared bilinear-group instance."""
    return _BILINEAR
