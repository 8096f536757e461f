"""Reference BN254 Miller loop: every pair steps T on the twist as it goes.

This is the per-step loop that ``repro.groups.bn254.pairing`` replaced with
one that reads each G2 argument's lines from a table built once per point.
It is kept here, unchanged, as the oracle the tests compare the product
loop against: the two must return the same flat Fp12 tuple, bit for bit.
"""

from __future__ import annotations

from repro.errors import CryptoError
from repro.groups.bn254.fp import (
    FP2_ONE,
    FP2_ZERO,
    FP12_ONE,
    P,
    fp2_conj,
    fp2_mul,
    fp2_sqr,
    fp12_mul_sparse,
    fp12_sqr,
    vec_neg,
    vec_sub,
)
from repro.groups.bn254.g2 import jac_double
from repro.groups.bn254.pairing import _LOOP_BITS, _TWIST_FROB


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


def miller(pairs) -> tuple:
    """Π f_{6x+2,Q}(P)·l_{[6x+2]Q,π(Q)}(P)·l_{[6x+2]Q+π(Q),−π²(Q)}(P) over the
    pairs with no infinity member, as a flat Fp12 value."""
    states = []
    for p, q in pairs:
        if not (p.is_infinity() or q.infinity):
            xq, yq = q.affine()
            states.append([(xq, yq, FP2_ONE), (xq, yq), *p.affine()])
    f = FP12_ONE
    for bit in _LOOP_BITS:
        f = fp12_sqr(f)
        for state in states:
            t, q, xp, yp = state
            t, line = _double_step(t, xp, yp)
            f = fp12_mul_sparse(f, *line)
            if bit == "1":
                t, line = _add_step(t, q, xp, yp)
                f = fp12_mul_sparse(f, *line)
            state[0] = t
    for t, q, xp, yp in states:
        # π(Q) and −π²(Q): the untwist–Frobenius–twist endomorphism on E′.
        x1, y1 = (fp2_mul(fp2_conj(c), g) for c, g in zip(q, _TWIST_FROB))
        x2, y2 = (fp2_mul(fp2_conj(c), g) for c, g in zip((x1, y1), _TWIST_FROB))
        t, line = _add_step(t, (x1, y1), xp, yp)
        f = fp12_mul_sparse(f, *line)
        _, line = _add_step(t, (x2, vec_neg(y2)), xp, yp)
        f = fp12_mul_sparse(f, *line)
    return f
