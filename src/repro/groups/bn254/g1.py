"""BN254 G1: the curve E(Fp): y² = x³ + 3, of prime order r (cofactor 1)."""

from __future__ import annotations

import hashlib

from ...errors import SerializationError
from ..base import Group, GroupElement
from .fp import P, R

B = 3
_GEN_X, _GEN_Y = 1, 2


class BN254G1Element(GroupElement):
    """Point in Jacobian coordinates (X : Y : Z), affine = (X/Z², Y/Z³)."""

    __slots__ = ("x", "y", "z", "group")

    def __init__(self, group: "BN254G1Group", x: int, y: int, z: int):
        self.group = group
        self.x, self.y, self.z = x % P, y % P, z % P

    def is_infinity(self) -> bool:
        return self.z == 0

    def affine(self) -> tuple[int, int]:
        if self.z == 0:
            return 0, 0
        z_inv = pow(self.z, -1, P)
        z2 = z_inv * z_inv % P
        return self.x * z2 % P, self.y * z2 * z_inv % P

    def _double(self) -> "BN254G1Element":
        if self.z == 0 or self.y == 0:
            return self.group.identity()
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
        return BN254G1Element(self.group, x3, y3, z3)

    def double(self) -> "BN254G1Element":
        return self._double()

    def __mul__(self, other: GroupElement) -> "BN254G1Element":
        if not isinstance(other, BN254G1Element):
            return NotImplemented
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
                return self.group.identity()
            return self._double()
        h = (u2 - u1) % P
        i = (2 * h) * (2 * h) % P
        j = h * i % P
        r = 2 * (s2 - s1) % P
        v = u1 * i % P
        x3 = (r * r - j - 2 * v) % P
        y3 = (r * (v - x3) - 2 * s1 * j) % P
        z3 = ((self.z + other.z) * (self.z + other.z) - z1z1 - z2z2) * h % P
        return BN254G1Element(self.group, x3, y3, z3)

    def __pow__(self, scalar: int) -> "BN254G1Element":
        scalar %= R
        result = self.group.identity()
        if scalar == 0:
            return result
        for bit in bin(scalar)[2:]:
            result = result._double()
            if bit == "1":
                result = result * self
        return result

    def inverse(self) -> "BN254G1Element":
        if self.z == 0:
            return self
        return BN254G1Element(self.group, self.x, -self.y, self.z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BN254G1Element):
            return NotImplemented
        if self.z == 0 or other.z == 0:
            return self.z == other.z
        z1z1 = self.z * self.z % P
        z2z2 = other.z * other.z % P
        return (
            self.x * z2z2 % P == other.x * z1z1 % P
            and self.y * z2z2 * other.z % P == other.y * z1z1 * self.z % P
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
        self._generator = BN254G1Element(self, _GEN_X, _GEN_Y, 1)
        self._identity = BN254G1Element(self, 1, 1, 0)

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
        return BN254G1Element(self, x, y, 1)

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
            return BN254G1Element(self, x, y, 1)


_GROUP = BN254G1Group()


def bn254_g1() -> BN254G1Group:
    """Return the shared BN254 G1 group instance."""
    return _GROUP
