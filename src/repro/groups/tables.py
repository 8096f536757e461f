"""Disk persistence for fixed-base exponentiation tables.

A :class:`~.precompute.FixedBaseTable` costs roughly three naive
exponentiations to build, and the bases that earn one (generators, public
keys, verification keys) are stable across process lifetimes.  This module
makes the tables survive restarts: each table serializes to one file under
``data_dir/tables/`` through the atomic, CRC-checked container of
:mod:`repro.storage.atomic`, and a node re-installs them at start so the
first request after a restart hits a warm cache (``loads`` instead of
``tables_built`` in :func:`~.precompute.precompute_stats`).

Entries are stored as *raw affine coordinates* via the per-group
``elements_to_raw``/``element_from_raw`` codec rather than the canonical
``to_bytes`` encoding.  The canonical decoders re-run subgroup checks
(a full scalar multiplication per point on ed25519 and BN254 G2) which
would make loading a table slower than rebuilding it; the raw codec
batch-normalizes with one Montgomery inversion on write and re-validates
only the curve equation on read.  That is safe because table files are
local, integrity-checked storage — never wire input.

Invalidation is structural: the container version is
:data:`TABLE_FORMAT_VERSION` (a bump discards every old file), the group
name is stored in the payload (an unknown or codec-less group discards the
file), and any CRC/shape/curve-equation failure discards the file and
lets the cache rebuild from scratch.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ..errors import ConfigurationError, SerializationError, StorageError
from ..serialization import Reader, encode_bytes, encode_str
from ..storage.atomic import (
    pack_record,
    read_versioned,
    unpack_record,
    write_versioned,
)
from .precompute import FixedBaseTable
from .registry import get_group

#: Bumped whenever the payload layout (or the table semantics) change;
#: readers discard files carrying any other version.
TABLE_FORMAT_VERSION = 1

#: Fixed width of one raw coordinate.  Every supported group's field prime
#: is below 2^256, so 32 bytes is exact and keeps the layout seekable.
_COORD_BYTES = 32

TABLE_SUFFIX = ".tbl"

_DIGEST_DOMAIN = b"repro-fixed-base-table-v1"


def table_name(group_name: str, base_bytes: bytes) -> str:
    """Stable filename stem for a table: hash of (group, base)."""
    digest = hashlib.sha256(
        _DIGEST_DOMAIN + encode_str(group_name) + encode_bytes(base_bytes)
    )
    return digest.hexdigest()[:32]


def serialize_table(table: FixedBaseTable) -> bytes:
    """Encode a table into the versioned-container *payload* bytes."""
    group = table.base.group
    if getattr(group, "raw_coords", 0) <= 0:
        raise SerializationError(
            f"group {group.name!r} has no raw coordinate codec"
        )
    flat = [entry for row in table.rows() for entry in row]
    raw = group.elements_to_raw(flat)
    body = bytearray()
    for coords in raw:
        for coord in coords:
            body += coord.to_bytes(_COORD_BYTES, "big")
    return (
        encode_str(group.name)
        + encode_bytes(bytes((table.window,)))
        + encode_bytes(table.base.to_bytes())
        + encode_bytes(bytes(body))
    )


def deserialize_table(payload: bytes) -> FixedBaseTable:
    """Inverse of :func:`serialize_table`.

    Raises :class:`SerializationError` (or :class:`ConfigurationError` for
    an unknown group) on any mismatch — the caller treats that as "discard
    the file and rebuild", never as data to trust.
    """
    reader = Reader(payload)
    group_name = reader.read_str()
    window_bytes = reader.read_bytes()
    base_bytes = reader.read_bytes()
    body = reader.read_bytes()
    reader.finish()
    if len(window_bytes) != 1 or not 1 <= window_bytes[0] <= 16:
        raise SerializationError("table window out of range")
    window = window_bytes[0]
    group = get_group(group_name)
    coords_per_element = getattr(group, "raw_coords", 0)
    if coords_per_element <= 0:
        raise SerializationError(
            f"group {group_name!r} has no raw coordinate codec"
        )
    radix = 1 << window
    blocks = (group.order.bit_length() + window - 1) // window
    stride = coords_per_element * _COORD_BYTES
    if len(body) != blocks * radix * stride:
        raise SerializationError("table body has wrong size")
    elements = []
    for offset in range(0, len(body), stride):
        coords = tuple(
            int.from_bytes(
                body[offset + i * _COORD_BYTES : offset + (i + 1) * _COORD_BYTES],
                "big",
            )
            for i in range(coords_per_element)
        )
        elements.append(group.element_from_raw(coords))
    rows = [elements[b * radix : (b + 1) * radix] for b in range(blocks)]
    base = rows[0][1]
    if base.to_bytes() != base_bytes:
        raise SerializationError("table base does not match stored encoding")
    try:
        return FixedBaseTable.from_rows(base, window, rows)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def table_blob(table: FixedBaseTable) -> bytes:
    """Full container bytes (what a table file holds)."""
    return pack_record(serialize_table(table), TABLE_FORMAT_VERSION)


def table_from_blob(blob: bytes, source: str = "<blob>") -> FixedBaseTable:
    """Decode :func:`table_blob` output, enforcing the format version."""
    version, payload = unpack_record(blob, source=source)
    if version != TABLE_FORMAT_VERSION:
        raise StorageError(
            f"{source}: table format v{version}, expected v{TABLE_FORMAT_VERSION}"
        )
    return deserialize_table(payload)


class TableStore:
    """Directory of persisted fixed-base tables (``data_dir/tables/``)."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, table: FixedBaseTable) -> Path:
        group = table.base.group
        stem = table_name(group.name, table.base.to_bytes())
        return self.directory / f"{stem}{TABLE_SUFFIX}"

    def save(self, table: FixedBaseTable) -> Path:
        """Atomically persist one table (overwrites any previous file)."""
        path = self.path_for(table)
        write_versioned(path, serialize_table(table), TABLE_FORMAT_VERSION)
        return path

    def save_all(self, tables) -> int:
        """Persist every serializable table not already on disk.

        Tables whose group lacks a raw codec are skipped, and existing
        files are left untouched (the content is deterministic for a given
        (group, base, window), so a present file is already correct).
        Returns the number of files written.
        """
        written = 0
        for table in tables:
            if getattr(table.base.group, "raw_coords", 0) <= 0:
                continue
            if self.path_for(table).exists():
                continue
            self.save(table)
            written += 1
        return written

    def load_all(self) -> tuple[list[FixedBaseTable], int]:
        """Read every table file; discard (delete) any that fail checks.

        Returns ``(tables, discarded_count)``.  A corrupted, truncated,
        version-bumped, or unknown-group file is unlinked so it cannot
        fail again on the next start.
        """
        loaded: list[FixedBaseTable] = []
        discarded = 0
        for path in sorted(self.directory.glob(f"*{TABLE_SUFFIX}")):
            try:
                version, payload = read_versioned(path)
                if version != TABLE_FORMAT_VERSION:
                    raise StorageError(
                        f"{path}: table format v{version}, "
                        f"expected v{TABLE_FORMAT_VERSION}"
                    )
                loaded.append(deserialize_table(payload))
            except (StorageError, SerializationError, ConfigurationError):
                discarded += 1
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        return loaded, discarded
