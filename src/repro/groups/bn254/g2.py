"""BN254 G2: prime-order subgroup of the sextic twist E'(Fp2): y² = x³ + 3/ξ.

Points are Jacobian triples (X, Y, Z) of flat Fp2 values (see :mod:`fp`),
affine = (X/Z², Y/Z³), so addition, doubling and the scalar ladder never
invert; only encoding (``to_bytes``) normalizes.
"""

from __future__ import annotations

import hashlib

from ...errors import SerializationError
from ..base import Group, GroupElement
from .fp import (
    FP2_ONE,
    FP2_ZERO,
    Fp2,
    P,
    R,
    XI,
    fp2_inv,
    fp2_is_square,
    fp2_mul,
    fp2_sqr,
    fp2_sqrt,
    vec_add,
    vec_neg,
    vec_sub,
)

#: Twist curve constant b' = 3/ξ.
B2 = Fp2(3, 0) * XI.inverse()

#: Cofactor of the twist: #E'(Fp2) = (2p − r)·r.
G2_COFACTOR = 2 * P - R

# Canonical generator (the one used by Ethereum's alt_bn128 precompiles).
_GEN_X = Fp2(
    10857046999023057135944570762232829481370756359578518086990519993285655852781,
    11559732032986387107991004021392285783925812861821192530917403151452391805634,
)
_GEN_Y = Fp2(
    8495653923123431417604973247489272438418190587263600148770280649306958101930,
    4082367875863433681332203403145435568316851327593401208105741076214120093531,
)

_INFINITY = (FP2_ONE, FP2_ONE, FP2_ZERO)


def jac_double(point):
    """2·(X, Y, Z) on y² = x³ + b (dbl-2009-l); Z₃ = 2YZ."""
    x, y, z = point
    if z == FP2_ZERO or y == FP2_ZERO:
        return _INFINITY
    a, b = fp2_sqr(x), fp2_sqr(y)
    c = fp2_sqr(b)
    t = fp2_sqr((x[0] + b[0], x[1] + b[1]))
    d0, d1 = 2 * (t[0] - a[0] - c[0]), 2 * (t[1] - a[1] - c[1])
    e = (3 * a[0], 3 * a[1])
    f = fp2_sqr(e)
    x3 = ((f[0] - 2 * d0) % P, (f[1] - 2 * d1) % P)
    m = fp2_mul(e, (d0 - x3[0], d1 - x3[1]))
    y3 = ((m[0] - 8 * c[0]) % P, (m[1] - 8 * c[1]) % P)
    return x3, y3, fp2_mul((2 * y[0], 2 * y[1]), z)


def jac_add(p, q):
    """General Jacobian addition (add-2007-bl with r and Z₃ not doubled)."""
    x1, y1, z1 = p
    x2, y2, z2 = q
    if z1 == FP2_ZERO:
        return q
    if z2 == FP2_ZERO:
        return p
    z1z1, z2z2 = fp2_sqr(z1), fp2_sqr(z2)
    u1, u2 = fp2_mul(x1, z2z2), fp2_mul(x2, z1z1)
    s1, s2 = fp2_mul(y1, fp2_mul(z2, z2z2)), fp2_mul(y2, fp2_mul(z1, z1z1))
    if u1 == u2:
        return jac_double(p) if s1 == s2 else _INFINITY
    h = (u2[0] - u1[0], u2[1] - u1[1])
    r = (s2[0] - s1[0], s2[1] - s1[1])
    hh = fp2_sqr(h)
    hhh, v = fp2_mul(h, hh), fp2_mul(u1, hh)
    rr = fp2_sqr(r)
    x3 = ((rr[0] - hhh[0] - 2 * v[0]) % P, (rr[1] - hhh[1] - 2 * v[1]) % P)
    y3 = vec_sub(fp2_mul(r, (v[0] - x3[0], v[1] - x3[1])), fp2_mul(s1, hhh))
    return x3, y3, fp2_mul(fp2_mul(z1, z2), h)


def _scale_to_affine(x, y, z_inv):
    z2 = fp2_sqr(z_inv)
    return fp2_mul(x, z2), fp2_mul(y, fp2_mul(z2, z_inv))


def _on_twist(x, y) -> bool:
    return fp2_sqr(y) == vec_add(fp2_mul(fp2_sqr(x), x), B2.v)


class BN254G2Element(GroupElement):
    """Point on the twist; built from affine Fp2 coordinates, Jacobian inside.

    ``_lines`` is None until a pairing first takes the point as its G2
    argument; then it holds the point's Miller lines (see
    :func:`repro.groups.bn254.pairing._lines`) for every later pairing.
    """

    __slots__ = ("_point", "group", "_lines")

    def __init__(
        self, group: "BN254G2Group", x: Fp2, y: Fp2, infinity: bool = False
    ):
        self.group = group
        self._point = _INFINITY if infinity else (x.v, y.v, FP2_ONE)
        self._lines = None

    @classmethod
    def _from_jacobian(cls, group: "BN254G2Group", point) -> "BN254G2Element":
        element = object.__new__(cls)
        element.group, element._point, element._lines = group, point, None
        return element

    @property
    def infinity(self) -> bool:
        return self._point[2] == FP2_ZERO

    def affine(self):
        """Flat affine (x, y); normalizes in place once (zeros at infinity)."""
        x, y, z = self._point
        if z == FP2_ZERO:
            return FP2_ZERO, FP2_ZERO
        if z != FP2_ONE:
            x, y = _scale_to_affine(x, y, fp2_inv(z))
            self._point = (x, y, FP2_ONE)
        return x, y

    x = property(lambda self: Fp2._wrap(self.affine()[0]))
    y = property(lambda self: Fp2._wrap(self.affine()[1]))

    def double(self) -> "BN254G2Element":
        return self._from_jacobian(self.group, jac_double(self._point))

    _double = double

    def __mul__(self, other: GroupElement) -> "BN254G2Element":
        if not isinstance(other, BN254G2Element):
            return NotImplemented
        return self._from_jacobian(self.group, jac_add(self._point, other._point))

    def _mul_raw(self, scalar: int) -> "BN254G2Element":
        result, base = _INFINITY, self._point
        for bit in bin(scalar)[2:]:
            result = jac_double(result)
            if bit == "1":
                result = jac_add(result, base)
        return self._from_jacobian(self.group, result)

    def __pow__(self, scalar: int) -> "BN254G2Element":
        return self._mul_raw(scalar % R)

    def inverse(self) -> "BN254G2Element":
        x, y, z = self._point
        return self._from_jacobian(self.group, (x, vec_neg(y), z))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BN254G2Element):
            return NotImplemented
        return self.affine() == other.affine()  # (0, 0) is not on the twist

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def to_bytes(self) -> bytes:
        x, y = self.affine()
        return b"".join(c.to_bytes(32, "big") for c in x + y)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BN254G2 {self.to_bytes().hex()[:16]}…>"


class BN254G2Group(Group):
    """The order-r subgroup of the sextic twist."""

    name = "bn254g2"
    order = R
    key_bits = 254

    def __init__(self) -> None:
        self._identity = BN254G2Element._from_jacobian(self, _INFINITY)
        self._generator = BN254G2Element(self, _GEN_X, _GEN_Y)

    def generator(self) -> BN254G2Element:
        return self._generator

    def identity(self) -> BN254G2Element:
        return self._identity

    def element_from_bytes(self, data: bytes) -> BN254G2Element:
        if len(data) != 128:
            raise SerializationError("bn254 G2 element must be 128 bytes")
        if data == bytes(128):
            return self.identity()
        coords = [int.from_bytes(data[i : i + 32], "big") for i in range(0, 128, 32)]
        if any(c >= P for c in coords):
            raise SerializationError("bn254 G2 coordinate out of range")
        point = self._from_affine(coords)
        if not point._mul_raw(R).infinity:
            raise SerializationError("bn254 G2 point not in prime-order subgroup")
        return point

    def _from_affine(self, coords) -> BN254G2Element:
        """The twist point (x.c0, x.c1, y.c0, y.c1); no subgroup check."""
        x, y = tuple(coords[:2]), tuple(coords[2:])
        if not _on_twist(x, y):
            raise SerializationError("bn254 G2 point not on twist")
        return BN254G2Element._from_jacobian(self, (x, y, FP2_ONE))

    def hash_to_element(self, data: bytes) -> BN254G2Element:
        """Try-and-increment x in Fp2, then clear the (2p − r) cofactor."""
        counter = 0
        while True:
            digest = hashlib.sha512(
                b"repro-bn254g2-h2c" + counter.to_bytes(4, "big") + data
            ).digest()
            counter += 1
            x = (
                int.from_bytes(digest[:32], "big") % P,
                int.from_bytes(digest[32:], "big") % P,
            )
            y2 = vec_add(fp2_mul(fp2_sqr(x), x), B2.v)
            if not fp2_is_square(y2):
                continue
            point = BN254G2Element._from_jacobian(self, (x, fp2_sqrt(y2), FP2_ONE))
            cleared = point._mul_raw(G2_COFACTOR)
            if not cleared.infinity:
                return cleared


_GROUP = BN254G2Group()


def bn254_g2() -> BN254G2Group:
    """Return the shared BN254 G2 group instance."""
    return _GROUP
