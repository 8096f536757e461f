"""Optimal ate pairing on BN254.

The Miller loop steps T on the twist E′(Fp2) in Jacobian coordinates along
the signed (non-adjacent) digits of 6x + 2, adding Q or −Q at each of its
21 nonzero digits below the leading one.  Each step yields a line
a + b·w + c·w³ (a, b, c ∈ Fp2) that differs from the affine line through
the untwisted points only by an Fp2 factor; the vertical lines a signed
loop leaves out lie in Fp6.  The final exponentiation kills both.  The
stepping depends on the G2 argument Q alone, so it runs once per point:
the first loop that meets Q stores its 88 lines on the element, each
divided by its a (one batched inversion) and kept as (b/a, c/a).  A loop
evaluates them at P as 1 + (b/a)·(x_P/y_P)·w + (c/a)·(1/y_P)·w³, for one
inversion of y_P per pair, and multiplies them into f with
:func:`fp.fp12_mul_line`.  All pairs of a product share one squaring of f
per loop digit.  The final exponentiation is the Devegili–Scott–Dahab
chain; its three powers of the BN parameter x run on Granger–Scott
cyclotomic squarings and x's width-4 signed windows, whose negative
digits are conjugations.
"""

from __future__ import annotations

from ...errors import CryptoError
from ..base import wnaf
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
    fp2_batch_inv,
    fp2_conj,
    fp2_mul,
    fp2_sqr,
    fp12_conj,
    fp12_cyclotomic_sqr,
    fp12_frobenius,
    fp12_inv,
    fp12_mul,
    fp12_mul_line,
    fp12_sqr,
    vec_neg,
    vec_sub,
)
from .g1 import BN254G1Element, BN254G1Group, bn254_g1
from .g2 import BN254G2Element, BN254G2Group, bn254_g2

#: Optimal ate loop count 6x + 2.
ATE_LOOP_COUNT = 6 * BN_X + 2


def _digits(k: int, width: int) -> list[int]:
    """k's signed windows of ``width`` as one digit per bit, top first."""
    windows = wnaf(k, width)
    digits = [0] * (windows[-1][0] + 1)
    for position, d in windows:
        digits[position] = d
    return digits[::-1]


_LOOP_NAF = _digits(ATE_LOOP_COUNT, 2)[1:]  # below the leading 1
_X_DIGITS = _digits(BN_X, 4)[1:]  # below the leading 1; 13 odd digits, |d| ≤ 7
_TWIST_FROB = (TWIST_FROB_X.v, TWIST_FROB_Y.v)


def _double_step(t):
    """T ← 2T (dbl-2009-l, Z₃ = 2YZ) and the tangent at T=(X, Y, Z), scaled
    by Z₃Z²: −(Z₃Z²)·y_P + (3X²Z²)·x_P·w + (2Y² − 3X³)·w³, as its (a, b, c)."""
    x, y, z = t
    xx, yy = fp2_sqr(x), fp2_sqr(y)
    z3 = fp2_mul((2 * y[0], 2 * y[1]), z)
    if z3 == FP2_ZERO:
        raise CryptoError("degenerate pairing input: vertical tangent")
    yyyy = fp2_sqr(yy)
    s = fp2_sqr((x[0] + yy[0], x[1] + yy[1]))
    d0, d1 = 2 * (s[0] - xx[0] - yyyy[0]), 2 * (s[1] - xx[1] - yyyy[1])
    e = (3 * xx[0], 3 * xx[1])
    ee = fp2_sqr(e)
    x3 = ((ee[0] - 2 * d0) % P, (ee[1] - 2 * d1) % P)
    m = fp2_mul(e, (d0 - x3[0], d1 - x3[1]))
    y3 = ((m[0] - 8 * yyyy[0]) % P, (m[1] - 8 * yyyy[1]) % P)
    zz, ex = fp2_sqr(z), fp2_mul(e, x)
    const = (2 * yy[0] - ex[0], 2 * yy[1] - ex[1])
    return (x3, y3, z3), (vec_neg(fp2_mul(z3, zz)), fp2_mul(e, zz), const)


def _add_step(t, q):
    """T ← T + Q for affine Q=(x₂, y₂) and the chord, scaled by Z₃ = Z·H:
    −Z₃·y_P + r·x_P·w + (Z₃y₂ − r·x₂)·w³ with H = x₂Z² − X, r = y₂Z³ − Y,
    as its (a, b, c)."""
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
    return (x3, y3, z3), (vec_neg(z3), r, const)


def _normalize(steps: list) -> list:
    """Each line (a, b, c) of ``steps`` as the flat (b/a, c/a), one inversion
    for all of them; a zero a raises :class:`CryptoError`."""
    lines = [line for step in steps for line in step]
    inverses = fp2_batch_inv([a for a, _, _ in lines])
    normalized = iter(
        [fp2_mul(b, inv) + fp2_mul(c, inv) for (_, b, c), inv in zip(lines, inverses)]
    )
    return [tuple([next(normalized) for _ in step]) for step in steps]


def _build_lines(q) -> list:
    """The Miller lines of affine Q, each as (b/a, c/a) ∈ Fp2², flattened.

    Entry k < 65 holds loop digit k's tangent, then its chord with Q or −Q
    if the digit is ±1; the last entry holds the two Frobenius chords.
    None of the stepping depends on P.
    """
    t = (*q, FP2_ONE)
    addends = {1: q, -1: (q[0], vec_neg(q[1]))}
    steps = []
    for digit in _LOOP_NAF:
        t, tangent = _double_step(t)
        if digit:
            t, chord = _add_step(t, addends[digit])
            steps.append((tangent, chord))
        else:
            steps.append((tangent,))
    # π(Q) and −π²(Q): the untwist–Frobenius–twist endomorphism on E′.
    x1, y1 = (fp2_mul(fp2_conj(c), g) for c, g in zip(q, _TWIST_FROB))
    x2, y2 = (fp2_mul(fp2_conj(c), g) for c, g in zip((x1, y1), _TWIST_FROB))
    t, first = _add_step(t, (x1, y1))
    _, second = _add_step(t, (x2, vec_neg(y2)))
    steps.append((first, second))
    return _normalize(steps)


def _lines(q: BN254G2Element) -> list:
    """Q's lines, built by the first Miller loop that meets Q and kept on it.

    A degenerate Q raises :class:`CryptoError` here on every call, because
    nothing is stored until the whole table is built.
    """
    lines = q._lines
    if lines is None:
        lines = q._lines = _build_lines(q.affine())
    return lines


def _line_scalars(p: BN254G1Element) -> tuple[int, int]:
    """(x_P/y_P, 1/y_P) for P = (X/Z², Y/Z³): X·Z/Y and Z³/Y, one inversion."""
    x, y, z = p.point
    if not y % P:
        raise CryptoError("degenerate pairing input: G1 point with y = 0")
    y_inv = pow(y, -1, P)
    if z == 1:
        return x * y_inv % P, y_inv
    return x * z * y_inv % P, z * z * z * y_inv % P


def _multiply_lines(f: tuple, lines, s: int, t: int) -> tuple:
    """f times each of ``lines`` evaluated at P, given (s, t) = (x_P/y_P, 1/y_P)."""
    for b0, b1, c0, c1 in lines:
        f = fp12_mul_line(f, b0 * s % P, b1 * s % P, c0 * t % P, c1 * t % P)
    return f


def _miller(pairs) -> tuple:
    """Π f_{6x+2,Q}(P)·l_{[6x+2]Q,π(Q)}(P)·l_{[6x+2]Q+π(Q),−π²(Q)}(P) over the
    pairs with no infinity member, as a flat Fp12 value, up to a factor in
    Fp6 that the final exponentiation kills."""
    terms = [
        (_lines(q), *_line_scalars(p))
        for p, q in pairs
        if not (p.is_infinity() or q.infinity)
    ]
    f = FP12_ONE
    for k in range(len(_LOOP_NAF)):
        if k:
            f = fp12_sqr(f)
        for lines, s, t in terms:
            f = _multiply_lines(f, lines[k], s, t)
    for lines, s, t in terms:
        f = _multiply_lines(f, lines[-1], s, t)
    return f


def _miller_loop(q: BN254G2Element, p: BN254G1Element) -> Fp12:
    return Fp12._wrap(_miller([(p, q)]))


def _cyclotomic_pow_x(f: tuple) -> tuple:
    """f^x in the cyclotomic subgroup, from f, f³, f⁵, f⁷ and their conjugates."""
    f2 = fp12_cyclotomic_sqr(f)
    odd = [f]
    for _ in range(3):
        odd.append(fp12_mul(odd[-1], f2))
    result = f
    for digit in _X_DIGITS:
        result = fp12_cyclotomic_sqr(result)
        if digit:
            power = odd[abs(digit) >> 1]
            result = fp12_mul(result, power if digit > 0 else fp12_conj(power))
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


_BILINEAR = BilinearGroup()


def bn254_pairing() -> BilinearGroup:
    """Return the shared bilinear-group instance."""
    return _BILINEAR
