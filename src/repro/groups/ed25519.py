"""Prime-order subgroup of edwards25519 (the curve behind Ed25519).

Implements the twisted Edwards curve ``-x² + y² = 1 + d·x²·y²`` over
``GF(2²⁵⁵ - 19)`` with extended homogeneous coordinates, RFC 8032 point
encoding, and a try-and-increment hash-to-curve that clears the cofactor.
The exported :class:`Ed25519Group` is the prime-order subgroup of order
``l = 2²⁵² + 27742317777372353535851937790883648493`` used by SG02, KG20
(FROST), and CKS05 in the paper (Table 3: "EC (Ed25519), 256 bit").
"""

from __future__ import annotations

import hashlib

from ..errors import SerializationError
from .base import Group, GroupElement, wnaf

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, -1, P)) % P
_2D = (2 * D) % P
_INV_D = pow(D, -1, P)
COFACTOR = 8

# Base point from RFC 8032.
_BASE_Y = 4 * pow(5, -1, P) % P
_SQRT_M1 = pow(2, (P - 1) // 4, P)


def _sqrt_ratio(u: int, v: int) -> int | None:
    """A square root of u/v (v ≠ 0) for one ``pow``, or None if there is none."""
    v3 = v * v % P * v % P
    # Candidate u·v³·(u·v⁷)^((p-5)/8), the p = 5 (mod 8) shortcut.
    x = u * v3 * pow(u * v3 * v3 * v % P, (P - 5) // 8, P) % P
    vx2 = v * x * x % P
    if vx2 == u % P:
        return x
    if vx2 == -u % P:
        return x * _SQRT_M1 % P
    return None


def _recover_x(y: int, sign: int) -> int | None:
    """Recover the x coordinate with the given sign bit, or None."""
    y2 = (y * y) % P
    x = _sqrt_ratio(y2 - 1, D * y2 + 1)
    if x is None:
        return None
    if x == 0 and sign == 1:
        return None
    if x & 1 != sign:
        x = P - x
    return x


# -- the flat kernel --------------------------------------------------------
# A point is four reduced ints (X, Y, Z, T), T = XY/Z.  The formulas are
# complete on edwards25519 (a = -1 is a square, d is not), so there are no
# special cases and Z is never 0 — torsion points and the identity included.

_IDENTITY = (0, 1, 1, 0)


def _dbl(p: tuple, want_t: bool = True) -> tuple:
    """dbl-2008-hwcd for a = -1; T is left out when a doubling follows."""
    x, y, z, _ = p
    a = x * x % P
    b = y * y % P
    g = b - a
    f = g - 2 * z * z % P
    h = -a - b
    e = (x + y) ** 2 % P + h
    return e * f % P, g * h % P, f * g % P, e * h % P if want_t else None


def _cached(p: tuple) -> tuple:
    """(Y−X, Y+X, 2d·T, 2Z), the addend form of :func:`_add`."""
    x, y, z, t = p
    return y - x, y + x, _2D * t % P, 2 * z


def _add(p: tuple, addend: tuple, want_t: bool = True) -> tuple:
    """add-2008-hwcd-3 for a = -1 against a :func:`_cached` operand."""
    x, y, z, t = p
    y_minus_x, y_plus_x, t_2d, z_2 = addend
    a = (y - x) * y_minus_x % P
    b = (y + x) * y_plus_x % P
    c = t * t_2d % P
    d = z * z_2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return e * f % P, g * h % P, f * g % P, e * h % P if want_t else None


def _odd_multiples(point: tuple, count: int) -> list[tuple]:
    """P, 3P, …, (2·count − 1)P as :func:`_cached` addends."""
    odd = [_cached(point)]
    if count > 1:
        twice = _cached(_dbl(point))
        for _ in range(count - 1):
            point = _add(point, twice)
            odd.append(_cached(point))
    return odd


def _chain(terms) -> tuple:
    """Σ [k]P over (odd multiples of P, :func:`wnaf` digits of k) terms,
    interleaved on one chain of doublings as long as the longest k.

    T is computed only where an addition will read it, so the
    (projective) result may lack it; :func:`_affine` rebuilds it.
    """
    steps: list[list[tuple]] = []  # addends per bit position
    for odd, digits in terms:
        steps.extend([] for _ in range(digits[-1][0] + 1 - len(steps)))
        for position, d in digits:
            if d > 0:
                steps[position].append(odd[d >> 1])
            else:
                y_minus_x, y_plus_x, t_2d, z_2 = odd[-d >> 1]
                steps[position].append((y_plus_x, y_minus_x, -t_2d, z_2))
    acc = _IDENTITY
    for addends in reversed(steps):
        acc = _dbl(acc, bool(addends))
        while addends:
            acc = _add(acc, addends.pop(), bool(addends))
    return acc


def _straus(pairs) -> tuple:
    """Σ [k]P over (point, k ≥ 0) pairs, interleaved on one doubling chain.

    The scalar multiplication of this module: ``**`` is its one-base
    case, ``_mul_raw`` (cofactor clearing) its unreduced one, and
    ``multi_exp`` hands it all k bases at once.  Each base gets the odd
    multiples as far as its digits reach.
    """
    terms = []
    for point, k in pairs:
        digits = wnaf(k)
        if digits:
            top = max(abs(d) for _, d in digits) >> 1
            terms.append((_odd_multiples(point, top + 1), digits))
    return _chain(terms)


#: ``powers`` cuts a base P into P·2^(43·j), j < 6: 258 bits cover any
#: scalar below L, and each scalar then runs a chain of about 43 doublings.
_CHUNK_BITS = 43
_CHUNKS = 6
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


def _affine(p: tuple) -> tuple:
    """The same point with Z = 1 (one inversion)."""
    x, y, z, _ = p
    z_inv = pow(z, -1, P)
    x, y = x * z_inv % P, y * z_inv % P
    return x, y, 1, x * y % P


# -- the prime-order check ---------------------------------------------------
# edwards25519 maps to the Montgomery curve M: v² = u³ + A·u² + u by
# u = (1+y)/(1−y), v = c·u/x with c² = −(A+2), and M(F_p) ≅ Z/8L is cyclic,
# so P has odd order iff P ∈ 8M.  The 2-isogeny φ: M → M' with kernel (0, 0),
# M': Y² = X(X² − 2A·X + A² − 4), has dual φ̂(X, Y) = (Y²/4X², …), and
# [2] = φ̂∘φ.  The test halves once and then reads a quartic character, in
# the spirit of Pornin, "Point-Halving and Subgroup Membership in Twisted
# Edwards Curves" (IACR ePrint 2022/1164):
#  1. P ∈ φ̂(M'(F_p)) iff u is a square.  With s = √u, R = (X, 2sX) for
#     X = A + 2u + 2v/s is a φ̂-preimage, so this halving costs one root.
#  2. M'(F_p) ≅ Z/2 × Z/4L, and P ∈ 8M iff R or R + (0, 0) lies in 4M', the
#     kernel of the order-4 Tate pairing (4 | p − 1).  Against S, a rational
#     point of order 4 with 2S = (A+2, 0), that pairing is χ₄(f(R)), where
#     f = ℓ²/(X − A − 2) has divisor 4(S) − 4(O), ℓ is the tangent at S and
#     χ₄(z) = z^((p−1)/4); against (0, 0) it is χ₂(X).  Adding (0, 0) flips
#     both (t₄((0, 0), S) = −1), so either preimage is in 4M' iff
#     χ₄(X²·f(R)) = 1: one more ``pow``, whichever preimage s picked.
_A = 486662
_C = _sqrt_ratio(-(_A + 2), 1)
_S_X = (_A + 2 + 2 * _sqrt_ratio(_A + 2, 1)) % P
_S_Y = _sqrt_ratio(_S_X * (_S_X * _S_X - 2 * _A * _S_X + _A * _A - 4), 1)
_S_SLOPE = (3 * _S_X * _S_X - 4 * _A * _S_X + _A * _A - 4) * pow(2 * _S_Y, -1, P) % P
_S_LINE = (_S_SLOPE * _S_X - _S_Y) % P  # ℓ(X, Y) = Y − slope·X + this


def _in_prime_order_subgroup(x: int, y: int) -> bool:
    """Whether the curve point (x, y) has order dividing L: two ``pow``s.

    Step 1 and 2 above, over fractions with denominator x so that nothing
    is inverted: X = N/x, ℓ(R) = M/x, X − A − 2 = K/x, and
    χ₄(X²·f(R)) = χ₄(N²·M²·K³·x) because x⁸ is a fourth power.
    """
    if x == 0:
        return y == 1  # (0, 1) is the identity, (0, −1) has order 2
    s = _sqrt_ratio(1 + y, 1 - y)  # y ≠ ±1 once x ≠ 0
    if s is None:
        return False
    n = (x * (_A + 2 * s * s) + 2 * _C * s) % P
    m = (n * (2 * s - _S_SLOPE) + _S_LINE * x) % P
    k = (n - (_A + 2) * x) % P
    nm = n * m % P
    return pow(nm * nm % P * k * k * k * x % P, (P - 1) // 4, P) == 1


class Ed25519Element(GroupElement):
    """Point in extended coordinates (X : Y : Z : T) with T = XY/Z.

    ``point`` is the kernel's flat tuple; ``**`` and ``multi_exp`` results
    come back with Z = 1, so encoding them costs no further inversion.
    """

    __slots__ = ("point", "group", "_encoded")

    def __init__(self, group: "Ed25519Group", point: tuple):
        self.group = group
        self.point = point
        self._encoded: bytes | None = None

    def __mul__(self, other: GroupElement) -> "Ed25519Element":
        if not isinstance(other, Ed25519Element):
            return NotImplemented
        return Ed25519Element(self.group, _add(self.point, _cached(other.point)))

    def _double(self) -> "Ed25519Element":
        return Ed25519Element(self.group, _dbl(self.point))

    double = _double

    def _mul_raw(self, scalar: int) -> "Ed25519Element":
        """Scalar multiplication without reduction mod L (cofactor math)."""
        return Ed25519Element(self.group, _affine(_straus([(self.point, scalar)])))

    def __pow__(self, scalar: int) -> "Ed25519Element":
        return self._mul_raw(scalar % L)

    def powers(self, *scalars: int) -> list["Ed25519Element"]:
        """``[self ** k for k in scalars]`` on one shared doubling run.

        One run of 5·43 doublings gives the bases P·2^(43·j), each with its
        width-5 odd multiples; each k mod L is then cut into 43-bit chunks
        (one per base) and summed on a chain of about 43 doublings.  Two
        scalars cost about 0.7 of two ``**``, three about 0.6 of three.
        """
        if len(scalars) < 2:
            return super().powers(*scalars)
        point, tables = self.point, []
        for chunk in range(_CHUNKS):
            if chunk:
                for bit in range(_CHUNK_BITS):
                    point = _dbl(point, bit == _CHUNK_BITS - 1)
            tables.append(_odd_multiples(point, 8))
        results = []
        for scalar in scalars:
            scalar %= L
            terms = []
            for odd in tables:
                digits = wnaf(scalar & _CHUNK_MASK)
                if digits:
                    terms.append((odd, digits))
                scalar >>= _CHUNK_BITS
            results.append(Ed25519Element(self.group, _affine(_chain(terms))))
        return results

    def inverse(self) -> "Ed25519Element":
        x, y, z, t = self.point
        return Ed25519Element(self.group, (-x % P, y, z, -t % P))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ed25519Element):
            return NotImplemented
        x1, y1, z1, _ = self.point
        x2, y2, z2, _ = other.point
        return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def to_bytes(self) -> bytes:
        if self._encoded is None:
            x, y, _, _ = self.point if self.point[2] == 1 else _affine(self.point)
            self._encoded = (y | ((x & 1) << 255)).to_bytes(32, "little")
        return self._encoded

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Ed25519 {self.to_bytes().hex()[:16]}…>"


class Ed25519Group(Group):
    """The prime-order subgroup of edwards25519."""

    name = "ed25519"
    order = L
    key_bits = 256

    def __init__(self) -> None:
        base_x = _recover_x(_BASE_Y, 0)
        assert base_x is not None
        self._generator = Ed25519Element(
            self, (base_x, _BASE_Y, 1, base_x * _BASE_Y % P)
        )
        self._identity = Ed25519Element(self, _IDENTITY)

    def generator(self) -> Ed25519Element:
        return self._generator

    def identity(self) -> Ed25519Element:
        return self._identity

    def element_from_bytes(self, data: bytes) -> Ed25519Element:
        if len(data) != 32:
            raise SerializationError("ed25519 element must be 32 bytes")
        encoded = int.from_bytes(data, "little")
        sign = encoded >> 255
        y = encoded & ((1 << 255) - 1)
        if y >= P:
            raise SerializationError("ed25519 y coordinate out of range")
        x = _recover_x(y, sign)
        if x is None:
            raise SerializationError("ed25519 encoding is not on the curve")
        if not _in_prime_order_subgroup(x, y):
            raise SerializationError("ed25519 point not in prime-order subgroup")
        return Ed25519Element(self, (x, y, 1, x * y % P))

    def _multi_exp(self, pairs, window: int) -> Ed25519Element:
        """Straus over the flat kernel; its window shape is fixed."""
        points = [(base.point, exponent) for base, exponent in pairs]
        return Ed25519Element(self, _affine(_straus(points)))

    def _fixed_base_form(self, rows):
        """Rows of :func:`_cached` addends, summed on the flat kernel: no
        element and no addend is rebuilt per lookup."""

        def product(addends) -> Ed25519Element:
            if not addends:
                return self._identity
            # The first addend (Y−X, Y+X, 2d·T, 2Z) is the point 2X : 2Y : 2Z.
            y_minus_x, y_plus_x, t_2d, z = addends[0]
            x, y = (y_plus_x - y_minus_x) % P, (y_plus_x + y_minus_x) % P
            z, t = z % P, t_2d * _INV_D % P
            for y_minus_x, y_plus_x, t_2d, z_2 in addends[1:]:  # _add, inlined
                a = (y - x) * y_minus_x % P
                b = (y + x) * y_plus_x % P
                c = t * t_2d % P
                d = z * z_2 % P
                e, f, g, h = b - a, d - c, d + c, b + a
                x, y, z, t = e * f % P, g * h % P, f * g % P, e * h % P
            return Ed25519Element(self, (x, y, z, t))

        return [[_cached(entry.point) for entry in row] for row in rows], product

    def hash_to_element(self, data: bytes) -> Ed25519Element:
        """Try-and-increment onto the curve, then clear the cofactor."""
        counter = 0
        while True:
            digest = hashlib.sha512(
                b"repro-ed25519-h2c" + counter.to_bytes(4, "big") + data
            ).digest()
            y = int.from_bytes(digest[:32], "little") % P
            sign = digest[32] & 1
            x = _recover_x(y, sign)
            counter += 1
            if x is None:
                continue
            cleared = Ed25519Element(self, (x, y, 1, x * y % P))._mul_raw(COFACTOR)
            if not cleared.is_identity():
                return cleared


_GROUP = Ed25519Group()


def ed25519() -> Ed25519Group:
    """Return the shared Ed25519 group instance."""
    return _GROUP
