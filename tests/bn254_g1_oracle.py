"""Reference BN254 G1 scalar multiplication: double-and-add and element Straus.

These are the per-element routines that ``repro.groups.bn254.g1`` replaced
with a flat GLV kernel: a bit-by-bit ``**`` over Jacobian elements and the
generic windowed Straus of ``Group._multi_exp``, on the Jacobian doubling
and add-2007-bl addition they used.  They are kept here, unchanged but for
taking and returning plain coordinates, as the oracle the kernel's results
must match byte for byte in ``to_bytes()``.
"""

from __future__ import annotations

from repro.groups.bn254.fp import P, R


class OracleG1:
    """Point in Jacobian coordinates (X : Y : Z), affine = (X/Z², Y/Z³)."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        self.x, self.y, self.z = x % P, y % P, z % P

    @staticmethod
    def identity() -> "OracleG1":
        return OracleG1(1, 1, 0)

    def affine(self) -> tuple[int, int]:
        if self.z == 0:
            return 0, 0
        z_inv = pow(self.z, -1, P)
        z2 = z_inv * z_inv % P
        return self.x * z2 % P, self.y * z2 * z_inv % P

    def _double(self) -> "OracleG1":
        if self.z == 0 or self.y == 0:
            return self.identity()
        x, y, z = self.x, self.y, self.z
        a = x * x % P
        b = y * y % P
        c = b * b % P
        d = 2 * ((x + b) * (x + b) - a - c) % P
        e = 3 * a % P
        f = e * e % P
        x3 = (f - 2 * d) % P
        y3 = (e * (d - x3) - 8 * c) % P
        z3 = 2 * y * z % P
        return OracleG1(x3, y3, z3)

    def __mul__(self, other: "OracleG1") -> "OracleG1":
        if self.z == 0:
            return other
        if other.z == 0:
            return self
        # Jacobian addition (add-2007-bl, simplified).
        z1z1 = self.z * self.z % P
        z2z2 = other.z * other.z % P
        u1 = self.x * z2z2 % P
        u2 = other.x * z1z1 % P
        s1 = self.y * other.z * z2z2 % P
        s2 = other.y * self.z * z1z1 % P
        if u1 == u2:
            if s1 != s2:
                return self.identity()
            return self._double()
        h = (u2 - u1) % P
        i = (2 * h) * (2 * h) % P
        j = h * i % P
        r = 2 * (s2 - s1) % P
        v = u1 * i % P
        x3 = (r * r - j - 2 * v) % P
        y3 = (r * (v - x3) - 2 * s1 * j) % P
        z3 = ((self.z + other.z) * (self.z + other.z) - z1z1 - z2z2) * h % P
        return OracleG1(x3, y3, z3)

    def __pow__(self, scalar: int) -> "OracleG1":
        scalar %= R
        result = self.identity()
        if scalar == 0:
            return result
        for bit in bin(scalar)[2:]:
            result = result._double()
            if bit == "1":
                result = result * self
        return result

    def to_bytes(self) -> bytes:
        x, y = self.affine()
        return x.to_bytes(32, "big") + y.to_bytes(32, "big")


def as_oracle(element) -> OracleG1:
    """The oracle's copy of a ``BN254G1Element``."""
    if element.is_infinity():
        return OracleG1.identity()
    return OracleG1(*element.affine(), 1)


def pow_bytes(element, scalar: int) -> bytes:
    """``(element ** scalar).to_bytes()`` by double-and-add."""
    return (as_oracle(element) ** scalar).to_bytes()


def multi_exp_bytes(elements, exponents, window: int = 4) -> bytes:
    """``multi_exp(elements, exponents).to_bytes()`` by the generic
    interleaved windowed Straus (``Group.multi_exp`` + ``_multi_exp``)."""
    assert len(elements) == len(exponents)
    pairs = [
        (as_oracle(base), exp % R) for base, exp in zip(elements, exponents) if exp % R
    ]
    if not pairs:
        return OracleG1.identity().to_bytes()
    radix = 1 << window
    tables = []
    for base, _ in pairs:
        row = [OracleG1.identity(), base]
        for _ in range(radix - 2):
            row.append(row[-1] * base)
        tables.append(row)
    mask = radix - 1
    blocks = (max(exp.bit_length() for _, exp in pairs) + window - 1) // window
    acc = OracleG1.identity()
    for block in range(blocks - 1, -1, -1):
        if block != blocks - 1:
            for _ in range(window):
                acc = acc._double()
        shift = block * window
        for (_, exp), row in zip(pairs, tables):
            digit = (exp >> shift) & mask
            if digit:
                acc = acc * row[digit]
    return acc.to_bytes()
