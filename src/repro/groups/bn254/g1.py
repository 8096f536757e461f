"""BN254 G1: the curve E(Fp): y² = x³ + 3, of prime order r (cofactor 1)."""

from __future__ import annotations

import hashlib

from ...errors import SerializationError
from ..base import Group, GroupElement, wnaf
from .fp import P, R

B = 3
_GEN_X, _GEN_Y = 1, 2

# -- the flat kernel --------------------------------------------------------
# A point is three reduced ints (X, Y, Z), affine (X/Z², Y/Z³), and Z = 0 at
# infinity; an addend is an affine pair (x, y).  Neither formula reads b, and
# G1 has no point of order 2, so a doubling needs no special case.

_INFINITY = (1, 1, 0)

# The GLV endomorphism φ(x, y) = (β·x, y), β³ = 1 in Fp, is [λ] on G1, with
# λ² + λ + 1 ≡ 0 (mod r): every point, since the cofactor is 1.  The rows
# (a, b) are a reduced basis of the lattice a + b·λ ≡ 0 (mod r), of
# determinant r.  All four are checked in tests/test_bn254_g1_kernel.py.
BETA = 2203960485148121921418603742825762020974279258880205651966
LAMBDA = 4407920970296243842393367215006156084916469457145843978461
_BASIS = (
    (9931322734385697763, -147946756881789319000765030803803410728),
    (147946756881789319010696353538189108491, 9931322734385697763),
)


def _dbl(p: tuple) -> tuple:
    """dbl-2009-l for a = 0 (2M + 5S); infinity doubles to infinity."""
    x, y, z = p
    a = x * x % P
    b = y * y % P
    c = b * b % P
    d = 2 * ((x + b) ** 2 - a - c) % P
    e = 3 * a
    f = e * e % P
    x3 = (f - 2 * d) % P
    return x3, (e * (d - x3) - 8 * c) % P, 2 * y * z % P


def _madd(p: tuple, q: tuple) -> tuple:
    """madd-2007-bl, Jacobian p plus affine q (7M + 4S).

    The two cases the formula cannot take are handled here: p at infinity
    gives q, and H = 0 (x(p) = x(q)) gives 2p or infinity.
    """
    x1, y1, z1 = p
    x2, y2 = q
    if not z1:
        return x2, y2, 1
    z1z1 = z1 * z1 % P
    h = (x2 * z1z1 - x1) % P
    r = 2 * (y2 * z1 * z1z1 - y1) % P
    if not h:
        return _INFINITY if r else _dbl(p)
    hh = h * h % P
    i = 4 * hh
    j = h * i % P
    v = x1 * i % P
    x3 = (r * r - j - 2 * v) % P
    return x3, (r * (v - x3) - 2 * y1 * j) % P, ((z1 + h) ** 2 - z1z1 - hh) % P


def _batch_affine(points: list) -> list:
    """The addend (x, y) of every point, None at infinity: one inversion."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        if z:
            acc = acc * z % P
    inv = pow(acc, -1, P)
    out: list = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        if z:
            z_inv = inv * prefix[i] % P
            inv = inv * z % P
            z2 = z_inv * z_inv % P
            out[i] = x * z2 % P, y * z2 * z_inv % P
    return out


def _split(k: int) -> tuple[int, int]:
    """k₁, k₂ with k₁ + k₂·λ ≡ k (mod r) and |k₁|, |k₂| < 2¹²⁷, for 0 ≤ k < r.

    (k, 0) minus the lattice point nearest to it: k·(b₂, −b₁)/r in the
    basis's coordinates, each rounded, so |kᵢ| ≤ (|row 1ᵢ| + |row 2ᵢ|)/2.
    """
    (a1, b1), (a2, b2) = _BASIS
    c1 = (2 * b2 * k + R) // (2 * R)
    c2 = (-2 * b1 * k + R) // (2 * R)
    return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


def _straus(pairs) -> tuple:
    """Σ [k]P over (affine P, 0 < k < r) pairs, on one chain of doublings.

    The only scalar multiplication in this module: ``**`` is its one-base
    case and ``multi_exp`` hands it all bases at once.  Each k is split as
    k₁ + k₂·λ and both halves are recoded into width-5 signed windows, so
    the chain is about 127 doublings long.  Both halves read the same odd
    multiples P, 3P, …, 15P (only as far as the digits reach), taken to
    affine with one inversion for all bases; the k₂ half reads them
    through φ, as (β·x, y).  The result is Jacobian.
    """
    recoded = []
    for point, k in pairs:
        k1, k2 = _split(k)
        recoded.append((point, ((wnaf(abs(k1)), k1 < 0), (wnaf(abs(k2)), k2 < 0))))
    twice = _batch_affine([_dbl((*point, 1)) for point, _ in recoded])
    chains = []
    for (point, halves), two in zip(recoded, twice):
        top = max(abs(d) for digits, _ in halves for _, d in digits) >> 1
        chain = [(*point, 1)]
        for _ in range(top):
            chain.append(_madd(chain[-1], two))
        chains.append(chain)
    odd_multiples = iter(_batch_affine([p for chain in chains for p in chain[1:]]))
    steps: list[list[tuple]] = []  # addends per bit position
    for (point, halves), chain in zip(recoded, chains):
        odd = [point] + [next(odd_multiples) for _ in chain[1:]]
        (digits1, negative1), (digits2, negative2) = halves
        odd_phi = [(BETA * x % P, y) for x, y in odd] if digits2 else []
        for digits, negative, table in (
            (digits1, negative1, odd),
            (digits2, negative2, odd_phi),
        ):
            if digits:
                steps.extend([] for _ in range(digits[-1][0] + 1 - len(steps)))
            for position, d in digits:
                x, y = table[abs(d) >> 1]
                steps[position].append((x, P - y if (d < 0) != negative else y))
    acc = _INFINITY
    for addends in reversed(steps):
        acc = _dbl(acc)
        for addend in addends:
            acc = _madd(acc, addend)
    return acc


def _normalized(p: tuple) -> tuple:
    """The same point with Z = 1, or infinity (at most one inversion)."""
    if p[2] in (0, 1):
        return p
    return (*_batch_affine([p])[0], 1)


class BN254G1Element(GroupElement):
    """Point in Jacobian coordinates (X : Y : Z), affine = (X/Z², Y/Z³).

    ``point`` is the kernel's flat tuple.  ``**`` and ``multi_exp`` results
    come back with Z = 1; any other element is normalised in place the
    first time it is read as an affine point (an addend of ``*``, an
    encoding, a pairing argument), which leaves its value unchanged.
    """

    __slots__ = ("point", "group")

    def __init__(self, group: "BN254G1Group", point: tuple):
        self.group = group
        self.point = point

    def is_infinity(self) -> bool:
        return not self.point[2]

    def affine(self) -> tuple[int, int]:
        x, y, z = self.point
        if z == 1:
            return x, y
        if not z:
            return 0, 0
        self.point = _normalized(self.point)
        return self.point[:2]

    def double(self) -> "BN254G1Element":
        return BN254G1Element(self.group, _dbl(self.point))

    _double = double

    def __mul__(self, other: GroupElement) -> "BN254G1Element":
        if not isinstance(other, BN254G1Element):
            return NotImplemented
        if not other.point[2]:
            return self
        return BN254G1Element(self.group, _madd(self.point, other.affine()))

    def __pow__(self, scalar: int) -> "BN254G1Element":
        scalar %= R
        if not scalar or self.is_infinity():
            return self.group.identity()
        point = _normalized(_straus([(self.affine(), scalar)]))
        return BN254G1Element(self.group, point)

    def inverse(self) -> "BN254G1Element":
        if self.is_infinity():
            return self
        x, y, z = self.point
        return BN254G1Element(self.group, (x, P - y, z))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BN254G1Element):
            return NotImplemented
        x1, y1, z1 = self.point
        x2, y2, z2 = other.point
        if not z1 or not z2:
            return z1 == z2
        z1z1 = z1 * z1 % P
        z2z2 = z2 * z2 % P
        return (
            x1 * z2z2 % P == x2 * z1z1 % P
            and y1 * z2z2 * z2 % P == y2 * z1z1 * z1 % P
        )

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def to_bytes(self) -> bytes:
        x, y = self.affine()
        return x.to_bytes(32, "big") + y.to_bytes(32, "big")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BN254G1 {self.to_bytes().hex()[:16]}…>"


class BN254G1Group(Group):
    """Prime-order group E(Fp) with generator (1, 2)."""

    name = "bn254g1"
    order = R
    key_bits = 254

    def __init__(self) -> None:
        self._generator = BN254G1Element(self, (_GEN_X, _GEN_Y, 1))
        self._identity = BN254G1Element(self, _INFINITY)

    def generator(self) -> BN254G1Element:
        return self._generator

    def identity(self) -> BN254G1Element:
        return self._identity

    def element_from_bytes(self, data: bytes) -> BN254G1Element:
        if len(data) != 64:
            raise SerializationError("bn254 G1 element must be 64 bytes")
        x = int.from_bytes(data[:32], "big")
        y = int.from_bytes(data[32:], "big")
        if x == 0 and y == 0:
            return self.identity()
        if x >= P or y >= P:
            raise SerializationError("bn254 G1 coordinate out of range")
        if (y * y - x * x * x - B) % P != 0:
            raise SerializationError("bn254 G1 point not on curve")
        # Cofactor is 1: every curve point lies in the prime-order group.
        return BN254G1Element(self, (x, y, 1))

    def _multi_exp(self, pairs, window: int) -> BN254G1Element:
        """Straus over the flat kernel; its window shape is fixed."""
        points = [(base.affine(), k) for base, k in pairs if not base.is_infinity()]
        if not points:
            return self._identity
        return BN254G1Element(self, _normalized(_straus(points)))

    def _fixed_base_form(self, rows):
        """Rows of affine addends, one inversion per row, summed with
        :func:`_madd`: no element is built per lookup."""

        def product(addends) -> BN254G1Element:
            acc = _INFINITY
            for addend in addends:
                acc = _madd(acc, addend)
            return BN254G1Element(self, acc)

        return [_batch_affine([entry.point for entry in row]) for row in rows], product

    def hash_to_element(self, data: bytes) -> BN254G1Element:
        """Try-and-increment; p ≡ 3 (mod 4) so sqrt is a single power."""
        counter = 0
        while True:
            digest = hashlib.sha256(
                b"repro-bn254g1-h2c" + counter.to_bytes(4, "big") + data
            ).digest()
            counter += 1
            x = int.from_bytes(digest, "big") % P
            y2 = (x * x * x + B) % P
            y = pow(y2, (P + 1) // 4, P)
            if y * y % P != y2:
                continue
            # Pick the lexicographically smaller root for determinism.
            if y > P - y:
                y = P - y
            if x == 0 and y == 0:
                continue
            return BN254G1Element(self, (x, y, 1))


_GROUP = BN254G1Group()


def bn254_g1() -> BN254G1Group:
    """Return the shared BN254 G1 group instance."""
    return _GROUP
