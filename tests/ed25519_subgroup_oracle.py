"""Reference Ed25519 decoder: the prime-order check as ``[L]P = O``.

This is the check ``repro.groups.ed25519.Ed25519Group.element_from_bytes``
replaced with one halving step and a quartic character (two ``pow`` calls
instead of 253 interpreted doublings).  It is kept here, unchanged, as the
oracle the tests compare the product decoder against: both must accept
exactly the same 32-byte strings.  :func:`table` generates the frozen
accept/reject table in ``tests/test_ed25519_kernel.py``.
"""

from __future__ import annotations

import hashlib

from repro.groups.ed25519 import (
    _IDENTITY,
    L,
    P,
    _add,
    _affine,
    _cached,
    _recover_x,
    _straus,
)


def in_prime_order_subgroup(point) -> bool:
    """[L]P is the identity (0 : Z : Z) exactly for the prime-order subgroup."""
    lx, ly, lz, _ = _straus([(point, L)])
    return lx == 0 and ly == lz


def decode(data: bytes):
    """The point ``data`` encodes if the oracle accepts it, else None."""
    if len(data) != 32:
        return None
    encoded = int.from_bytes(data, "little")
    sign, y = encoded >> 255, encoded & ((1 << 255) - 1)
    if y >= P:
        return None
    x = _recover_x(y, sign)
    if x is None:
        return None
    point = (x, y, 1, x * y % P)
    return point if in_prime_order_subgroup(point) else None


def encode(point) -> bytes:
    x, y, _, _ = _affine(point)
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def add(p, q):
    return _add(p, _cached(q))


def curve_point(tag: bytes):
    """A point of the full curve group (cofactor not cleared)."""
    counter = 0
    while True:
        digest = hashlib.sha512(tag + bytes([counter])).digest()
        y = int.from_bytes(digest[:32], "little") % P
        x = _recover_x(y, digest[32] & 1)
        counter += 1
        if x is not None:
            return x, y, 1, x * y % P


def small_order_points():
    """The eight points of order dividing 8, as multiples 0..7 of one of
    exact order 8."""
    counter = 0
    while True:
        t8 = _affine(_straus([(curve_point(b"torsion%d" % counter), L)]))
        if not in_prime_order_subgroup(_affine(_straus([(t8, 4)]))):  # order 8
            multiples = [_IDENTITY]
            for _ in range(7):
                multiples.append(_affine(add(multiples[-1], t8)))
            return multiples
        counter += 1


def _raw(y: int, sign: int) -> str:
    return (y | (sign << 255)).to_bytes(32, "little").hex()


def table() -> list[tuple[str, str, bool]]:
    """(case, 32-byte encoding as hex, accepted?) for the frozen table."""
    rows = []
    small = small_order_points()
    for i, point in enumerate(small):
        rows.append((f"small order: {i}·T8", encode(point).hex(), i == 0))
    subgroup = _affine(_straus([(curve_point(b"subgroup"), 8)]))
    rows.append(("prime order: [8]·curve point", encode(subgroup).hex(), True))
    for i, torsion in enumerate(small[1:], 1):
        mixed = encode(add(subgroup, torsion)).hex()
        rows.append((f"mixed order: prime-order point + {i}·T8", mixed, False))
    full = curve_point(b"full")
    rows.append(("order 8L: curve point, cofactor kept", encode(full).hex(), False))
    # "Taming the many EdDSAs": y ≥ p read as y − p, and x = 0 with the sign
    # bit set.  p + 1 would be the identity, p − 1 the point of order 2.
    for j in range(2**255 - P):
        for sign in (0, 1):
            name = f"non-canonical: y = p + {j}, sign {sign}"
            rows.append((name, _raw(P + j, sign), False))
    rows.append(("non-canonical: x = 0, y = 1, sign 1", _raw(1, 1), False))
    rows.append(("non-canonical: x = 0, y = p - 1, sign 1", _raw(P - 1, 1), False))
    y = 2
    while _recover_x(y, 0) is not None:
        y += 1
    rows.append((f"off the curve: y = {y}", _raw(y, 0), False))
    for name, data, accepted in rows:
        assert (decode(bytes.fromhex(data)) is not None) == accepted, name
    return rows


if __name__ == "__main__":  # pragma: no cover - regenerates the frozen table
    for row in table():
        print(f"    {row!r},")
