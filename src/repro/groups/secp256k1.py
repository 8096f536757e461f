"""secp256k1 — a third curve backend, exercising the group abstraction.

The scheme layer is written against :class:`~repro.groups.base.Group` only,
so adding a curve makes every DL scheme (SG02, KG20, CKS05) available on it
with zero scheme-side changes — the extensibility §3.5 promises.  secp256k1
is the natural candidate: it is what Bitcoin/Ethereum wallets verify against.

Short Weierstrass y² = x³ + 7 over p = 2²⁵⁶ − 2³² − 977, prime order n,
cofactor 1.  Encoding: 33-byte SEC1 compressed points.
"""

from __future__ import annotations

import hashlib

from ..errors import SerializationError
from ..mathutils.modular import sqrt_mod_prime
from .base import Group, GroupElement

P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
B = 7
_GEN_X = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GEN_Y = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


class Secp256k1Element(GroupElement):
    """Point in Jacobian coordinates (X : Y : Z); Z = 0 is infinity."""

    __slots__ = ("x", "y", "z", "group")

    def __init__(self, group: "Secp256k1Group", x: int, y: int, z: int):
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

    def _double(self) -> "Secp256k1Element":
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
        return Secp256k1Element(self.group, x3, y3, z3)

    def double(self) -> "Secp256k1Element":
        return self._double()

    def __mul__(self, other: GroupElement) -> "Secp256k1Element":
        if not isinstance(other, Secp256k1Element):
            return NotImplemented
        if self.z == 0:
            return other
        if other.z == 0:
            return self
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
        return Secp256k1Element(self.group, x3, y3, z3)

    def __pow__(self, scalar: int) -> "Secp256k1Element":
        scalar %= N
        result = self.group.identity()
        if scalar == 0:
            return result
        for bit in bin(scalar)[2:]:
            result = result._double()
            if bit == "1":
                result = result * self
        return result

    def inverse(self) -> "Secp256k1Element":
        if self.z == 0:
            return self
        return Secp256k1Element(self.group, self.x, -self.y, self.z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Secp256k1Element):
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
        """SEC1 compressed encoding; infinity = single 0x00 byte + zeros."""
        if self.z == 0:
            return bytes(33)
        x, y = self.affine()
        prefix = 0x02 if y % 2 == 0 else 0x03
        return bytes([prefix]) + x.to_bytes(32, "big")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<secp256k1 {self.to_bytes().hex()[:16]}…>"


class Secp256k1Group(Group):
    """The Bitcoin curve as a Thetacrypt group backend."""

    name = "secp256k1"
    order = N
    key_bits = 256

    def __init__(self) -> None:
        self._generator = Secp256k1Element(self, _GEN_X, _GEN_Y, 1)
        self._identity = Secp256k1Element(self, 1, 1, 0)

    def generator(self) -> Secp256k1Element:
        return self._generator

    def identity(self) -> Secp256k1Element:
        return self._identity

    def element_from_bytes(self, data: bytes) -> Secp256k1Element:
        if len(data) != 33:
            raise SerializationError("secp256k1 element must be 33 bytes")
        if data == bytes(33):
            return self.identity()
        prefix = data[0]
        if prefix not in (0x02, 0x03):
            raise SerializationError("invalid SEC1 prefix")
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise SerializationError("secp256k1 x coordinate out of range")
        y2 = (x * x * x + B) % P
        try:
            y = sqrt_mod_prime(y2, P)
        except Exception as exc:
            raise SerializationError("secp256k1 point not on curve") from exc
        if y % 2 != prefix - 0x02:
            y = P - y
        # Cofactor 1: on-curve implies in-group.
        return Secp256k1Element(self, x, y, 1)

    def hash_to_element(self, data: bytes) -> Secp256k1Element:
        counter = 0
        while True:
            digest = hashlib.sha256(
                b"repro-secp256k1-h2c" + counter.to_bytes(4, "big") + data
            ).digest()
            counter += 1
            x = int.from_bytes(digest, "big") % P
            y2 = (x * x * x + B) % P
            if pow(y2, (P - 1) // 2, P) != 1:
                continue
            y = sqrt_mod_prime(y2, P)
            if y > P - y:
                y = P - y
            return Secp256k1Element(self, x, y, 1)


_GROUP = Secp256k1Group()


def secp256k1() -> Secp256k1Group:
    """Return the shared secp256k1 group instance."""
    return _GROUP
