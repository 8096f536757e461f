"""Reference BN254 Miller loop: every pair steps T on the twist as it goes.

This is the per-step loop over the binary digits of 6x + 2 that
``repro.groups.bn254.pairing`` replaced with one that steps along the
signed digits and reads each G2 argument's lines, divided by their
constant term, from a table built once per point.  It is kept here,
unchanged, as the oracle the tests compare the product loop against: the
two Miller values differ by a factor in Fp6* (the Fp2 factors of the
lines, the vertical lines of the signed loop), so their quotient has no
w-part and their final exponentiations agree bit for bit.  The loop
count and the sparse line product are its own, not the product's.
"""

from __future__ import annotations

from repro.errors import CryptoError
from repro.groups.bn254.fp import (
    BN_X,
    FP2_ONE,
    FP2_ZERO,
    FP12_ONE,
    P,
    _mul6_sparse,
    fp2_conj,
    fp2_mul,
    fp2_sqr,
    fp12_sqr,
    vec_neg,
    vec_sub,
)
from repro.groups.bn254.g2 import jac_double
from repro.groups.bn254.pairing import _TWIST_FROB

_LOOP_BITS = bin(6 * BN_X + 2)[3:]  # below the most-significant bit


def fp12_mul_sparse(f, a, b, c):
    """f·(a + b·w + c·w³) for a, b, c ∈ Fp2 — the Miller-loop line shape.

    With L0 = (a, 0, 0) and L1 = (b, c, 0): F0·L0 costs 3 Fp2 products and the
    two sparse Fp6 products 5 each, 13 instead of the dense 18.
    """
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11 = f
    a0, a1 = a
    b0, b1 = b
    c0, c1 = c
    ts = a0 + a1
    p, q = f0 * a0, f1 * a1
    t0, t1 = p - q, (f0 + f1) * ts - p - q
    p, q = f2 * a0, f3 * a1
    t2, t3 = p - q, (f2 + f3) * ts - p - q
    p, q = f4 * a0, f5 * a1
    t4, t5 = p - q, (f4 + f5) * ts - p - q
    s0, s1, s2, s3, s4, s5 = _mul6_sparse(f6, f7, f8, f9, f10, f11, b0, b1, c0, c1)
    m0, m1, m2, m3, m4, m5 = _mul6_sparse(
        f0 + f6, f1 + f7, f2 + f8, f3 + f9, f4 + f10, f5 + f11,
        a0 + b0, a1 + b1, c0, c1,
    )
    return (
        (t0 + 9 * s4 - s5) % P, (t1 + s4 + 9 * s5) % P,
        (t2 + s0) % P, (t3 + s1) % P, (t4 + s2) % P, (t5 + s3) % P,
        (m0 - t0 - s0) % P, (m1 - t1 - s1) % P, (m2 - t2 - s2) % P,
        (m3 - t3 - s3) % P, (m4 - t4 - s4) % P, (m5 - t5 - s5) % P,
    )


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
