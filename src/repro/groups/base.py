"""Abstract group interface shared by all curve backends.

The schemes module is written against this interface only, mirroring how the
original Thetacrypt parametrizes schemes "just with the scheme type and the
arithmetic group needed for it" (§3.5).  A *group* here is a cyclic group of
prime order ``q`` with a fixed generator; elements are immutable value
objects supporting the usual multiplicative notation.
"""

from __future__ import annotations

import secrets
from abc import ABC, abstractmethod
from functools import reduce
from operator import mul
from typing import Iterable, Sequence

from ..errors import SerializationError


def wnaf(k: int, width: int = 5) -> list[tuple[int, int]]:
    """Signed windows of k ≥ 0 as (bit position, digit) pairs.

    Digits are odd with |d| < 2^(width − 1), positions ascend at least
    ``width`` apart, and k = Σ d·2^position.  Width 5 is the recoding
    behind both flat kernels' Straus loops; the BN254 final exponentiation
    recodes x at width 4.
    """
    mask, half = (1 << width) - 1, 1 << (width - 1)
    digits = []
    position = 0
    while k:
        if k & 1:
            d = (k & mask) - ((k & half) << 1)
            digits.append((position, d))
            k = (k - d) >> width
            position += width
        else:
            k >>= 1
            position += 1
    return digits


class GroupElement(ABC):
    """Immutable element of a prime-order group (multiplicative notation)."""

    group: "Group"

    @abstractmethod
    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Group operation."""

    @abstractmethod
    def __pow__(self, scalar: int) -> "GroupElement":
        """Scalar exponentiation; negative scalars are reduced mod the order."""

    @abstractmethod
    def inverse(self) -> "GroupElement":
        """Group inverse."""

    @abstractmethod
    def __eq__(self, other: object) -> bool: ...

    @abstractmethod
    def __hash__(self) -> int: ...

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Canonical fixed-length encoding (hashable into Fiat-Shamir)."""

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self * other.inverse()

    def powers(self, *scalars: int) -> list["GroupElement"]:
        """``[self ** k for k in scalars]``; a backend whose chain of
        doublings can be shared between the scalars overrides this."""
        return [self**k for k in scalars]

    def double(self) -> "GroupElement":
        """Square the element; backends override with a dedicated formula.

        The generic :meth:`Group._multi_exp` (BN254 G2's) doubles through
        it; no hot G1 or Ed25519 chain does, since both kernels double flat
        tuples inside their own Straus loops.
        """
        return self * self

    def is_identity(self) -> bool:
        return self == self.group.identity()


class Group(ABC):
    """A named cyclic group of prime order with a canonical generator."""

    #: Registry name, e.g. ``"ed25519"`` or ``"bn254g1"``.
    name: str
    #: Prime order of the group.
    order: int
    #: Nominal key length in bits (reported in Table 3 of the paper).
    key_bits: int

    @abstractmethod
    def generator(self) -> GroupElement: ...

    @abstractmethod
    def identity(self) -> GroupElement: ...

    @abstractmethod
    def element_from_bytes(self, data: bytes) -> GroupElement:
        """Decode a canonical encoding; raise SerializationError if invalid."""

    @abstractmethod
    def hash_to_element(self, data: bytes) -> GroupElement:
        """Deterministically map bytes to a group element (random-oracle style)."""

    def random_scalar(self) -> int:
        """Uniform nonzero scalar in Z_q (exponent space)."""
        while True:
            value = secrets.randbelow(self.order)
            if value:
                return value

    def scalar_from_bytes(self, data: bytes) -> int:
        """Reduce a byte string into Z_q (used for Fiat-Shamir challenges)."""
        return int.from_bytes(data, "big") % self.order

    def multi_exp(
        self, bases: Sequence[GroupElement], exponents: Sequence[int], window: int = 4
    ) -> GroupElement:
        """Compute Π bases[i]^exponents[i] on one shared chain of doublings.

        The entry point for every group: lengths are checked, exponents
        reduced and zero terms dropped here, then :meth:`_multi_exp` does
        the arithmetic — the hot step of every ``combine()``.  Each
        exponent is reduced to its representative in (−q/2, q/2], and a
        negative one raises the inverse base (a negation on every curve
        here) to |k|: a small Lagrange coefficient such as −1 or −2 then
        costs a few group operations instead of a full-length chain.
        """
        if len(bases) != len(exponents):
            raise SerializationError("multi_exp length mismatch")
        order, half = self.order, self.order >> 1
        pairs = []
        for base, exp in zip(bases, exponents):
            exp %= order
            if exp > half:
                pairs.append((base.inverse(), order - exp))
            elif exp:
                pairs.append((base, exp))
        if not pairs:
            return self.identity()
        return self._multi_exp(pairs, window)

    def _multi_exp(
        self, pairs: Sequence[tuple[GroupElement, int]], window: int
    ) -> GroupElement:
        """Interleaved windowed Straus over (base, exponent in [1, q/2]) pairs.

        ~log₂(q) squarings + k·(2^w + log₂(q)/w) multiplications instead of
        k·1.5·log₂(q) operations.  A group with a cheaper kernel overrides
        this hook, never :meth:`multi_exp`: callers, tracing and benchmarks
        all enter through that one name.
        """
        radix = 1 << window
        tables = []
        for base, _ in pairs:
            row: list[GroupElement] = [self.identity(), base]
            for _ in range(radix - 2):
                row.append(row[-1] * base)
            tables.append(row)
        mask = radix - 1
        blocks = (max(exp.bit_length() for _, exp in pairs) + window - 1) // window
        acc = self.identity()
        for block in range(blocks - 1, -1, -1):
            if block != blocks - 1:
                for _ in range(window):
                    acc = acc.double()
            shift = block * window
            for (_, exp), row in zip(pairs, tables):
                digit = (exp >> shift) & mask
                if digit:
                    acc = acc * row[digit]
        return acc

    def _fixed_base_form(self, rows: Iterable[list[GroupElement]]):
        """A fixed-base table's rows as stored, and the product of a list of
        stored entries (an element).

        The hook behind :class:`~repro.groups.precompute.FixedBaseTable`,
        which hands over its rows one at a time: the default keeps the
        elements and multiplies with ``*``; a group with a flat kernel
        stores that kernel's operands instead, so that no table ever holds
        both forms.
        """
        return list(rows), lambda entries: reduce(mul, entries, self.identity())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Group {self.name} order={self.order:#x}>"
