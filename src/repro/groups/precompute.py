"""Fixed-base exponentiation tables and the shared precomputation cache.

The evaluation hot paths (§4) are dominated by scalar multiplications whose
bases barely change: every request exponentiates the group generator, the
service public key, or a per-party verification key.  A windowed fixed-base
table turns one such exponentiation from a chain of ~log₂(q) doublings plus
its additions into ~log₂(q)/w table lookups and additions, at a one-time
build cost of 2^w·log₂(q)/w multiplications — four to five exponentiations
on Ed25519, whose rows hold the flat kernel's addends
(:meth:`~repro.groups.base.Group._fixed_base_form`), as BN254 G1's do.

Only long-lived bases reach the cache: generators, public keys and
verification keys.  :func:`fixed_pow` builds a base's table the first time
it sees that base and keeps it in a bounded LRU, so every later
exponentiation of the base is a table lookup.  A per-request base (a
ciphertext ``u``-value, the hash point of a coin name) would earn a table
it never uses again — four to five exponentiations to build on Ed25519 —
so callers keep such bases away from :func:`fixed_pow` and use
``base ** scalar`` or ``Group.multi_exp``; ``tests/test_precompute.py``
holds the schemes to that.

The cache lives in process memory only: it is built on demand and lost with
the process, so a restarted node rebuilds the tables its traffic needs.
Its counters (:func:`precompute_stats`) reach the node's metric scrape
through ``telemetry.register_crypto_cache_collector``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import GroupElement

#: Window width in bits.  4 is the sweet spot for 254-/256-bit orders in
#: pure Python: 16-entry rows keep the build cost low while cutting the
#: online cost to ~64 multiplications.
DEFAULT_WINDOW = 4


class FixedBaseTable:
    """Windowed (radix-2^w) fixed-base exponentiation table for one element.

    Precomputes ``base^(d·2^(w·b))`` for every window position ``b`` and
    digit ``d``; an exponentiation is then the product of one table entry
    per nonzero window of the scalar — no doublings at all.  The rows hold
    whatever :meth:`Group._fixed_base_form` stores: elements by default,
    the flat kernels' addends on Ed25519 and BN254 G1.
    """

    __slots__ = ("base", "order", "window", "_rows", "_product")

    def __init__(self, base: "GroupElement", window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.base = base
        self.order = base.group.order
        self.window = window
        radix = 1 << window
        blocks = (self.order.bit_length() + window - 1) // window

        def rows():  # one row of elements at a time, for the group to store
            power = base  # base^(radix^block) at the top of each iteration
            for _ in range(blocks):
                row = [base.group.identity()]
                for _ in range(radix - 1):
                    row.append(row[-1] * power)
                yield row
                power = row[-1] * power

        self._rows, self._product = base.group._fixed_base_form(rows())

    def pow(self, scalar: int) -> "GroupElement":
        """``base ** scalar`` via table lookups; matches ``__pow__`` exactly."""
        scalar %= self.order
        rows = self._rows
        mask = (1 << self.window) - 1
        entries = []
        block = 0
        while scalar:
            digit = scalar & mask
            if digit:
                entries.append(rows[block][digit])
            scalar >>= self.window
            block += 1
        return self._product(entries)


class PrecomputeCache:
    """Bounded LRU of :class:`FixedBaseTable` instances, one per base."""

    def __init__(self, table_capacity: int = 128):
        self.table_capacity = table_capacity
        self._tables: "OrderedDict[tuple[str, bytes], FixedBaseTable]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.tables_built = 0
        self.evictions = 0

    def table_for(self, base: "GroupElement") -> FixedBaseTable:
        """Return the cached table for ``base``, building it on first use."""
        key = (base.group.name, base.to_bytes())
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                self.hits += 1
                return table
        table = FixedBaseTable(base)
        with self._lock:
            self.tables_built += 1
            self._tables[key] = table
            self._tables.move_to_end(key)
            while len(self._tables) > self.table_capacity:
                self._tables.popitem(last=False)
                self.evictions += 1
        return table

    def pow(self, base: "GroupElement", scalar: int) -> "GroupElement":
        """``base ** scalar`` through ``base``'s table."""
        return self.table_for(base).pow(scalar)

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "tables_built": self.tables_built,
                "evictions": self.evictions,
                "tables": len(self._tables),
                "capacity": self.table_capacity,
            }

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.hits = self.tables_built = self.evictions = 0


_CACHE = PrecomputeCache()


def fixed_pow(base: "GroupElement", scalar: int) -> "GroupElement":
    """Process-wide cached fixed-base exponentiation (see module docstring)."""
    return _CACHE.pow(base, scalar)


def fixed_base_table(base: "GroupElement") -> FixedBaseTable:
    """The shared cache's table for ``base``, built on first use."""
    return _CACHE.table_for(base)


def precompute_stats() -> dict:
    """Hit/size counters for the fixed-base table cache (node stats)."""
    return _CACHE.stats()


def clear_precompute_cache() -> None:
    """Drop all tables and reset counters (tests/benchmarks)."""
    _CACHE.clear()
