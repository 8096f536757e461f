"""Atomic, integrity-checked file persistence.

The crash-safety building block of the durability subsystem: a writer that
either leaves the previous file contents fully intact or replaces them with
the complete new contents (never a torn mix), and a small versioned
container format with a CRC32 so a reader can tell a valid snapshot from a
damaged one.

Container layout (all integers big-endian)::

    magic (4)  "RPRO"
    version (2)
    crc32 (4)   of the payload
    length (4)  of the payload
    payload (length)

The atomic replace is the POSIX recipe: write to a temporary file in the
*same directory*, flush + fsync the file, ``os.replace`` over the target,
then fsync the directory so the rename itself survives power loss.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

from ..errors import StorageError

MAGIC = b"RPRO"
_HEADER_LEN = len(MAGIC) + 2 + 4 + 4


def fsync_directory(directory: Path | str) -> None:
    """fsync a directory so a rename/creation inside it is durable."""
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - some filesystems refuse dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + fsync + replace)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise StorageError(f"atomic write to {path} failed: {exc}") from exc
    finally:
        if tmp.exists():  # replace failed; don't leave the temp file behind
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
    fsync_directory(path.parent)


def pack_record(payload: bytes, version: int = 1) -> bytes:
    """Wrap ``payload`` in the magic/version/CRC32 container."""
    if not 0 <= version <= 0xFFFF:
        raise StorageError(f"version {version} outside u16 range")
    return (
        MAGIC
        + version.to_bytes(2, "big")
        + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
        + len(payload).to_bytes(4, "big")
        + payload
    )


def unpack_record(data: bytes, source: str = "<bytes>") -> tuple[int, bytes]:
    """Inverse of :func:`pack_record`; returns ``(version, payload)``.

    Raises :class:`StorageError` on a bad magic, a truncated container,
    bytes past the declared payload, or a CRC mismatch — the caller decides
    whether that is fatal.
    """
    if len(data) < _HEADER_LEN:
        raise StorageError(f"{source}: truncated container header")
    if data[:4] != MAGIC:
        raise StorageError(f"{source}: bad magic {data[:4]!r}")
    version = int.from_bytes(data[4:6], "big")
    crc = int.from_bytes(data[6:10], "big")
    length = int.from_bytes(data[10:14], "big")
    payload = data[_HEADER_LEN : _HEADER_LEN + length]
    if len(payload) != length:
        raise StorageError(
            f"{source}: payload truncated ({len(payload)}/{length} bytes)"
        )
    if len(data) > _HEADER_LEN + length:
        raise StorageError(
            f"{source}: {len(data) - _HEADER_LEN - length} trailing bytes "
            "after the payload"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise StorageError(f"{source}: CRC32 mismatch")
    return version, payload


def write_versioned(path: Path | str, payload: bytes, version: int = 1) -> None:
    """Atomically persist ``payload`` inside the integrity container."""
    atomic_write_bytes(path, pack_record(payload, version))


def read_versioned(
    path: Path | str, expected_version: int | None = None
) -> tuple[int, bytes]:
    """Read and verify a container written by :func:`write_versioned`."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    version, payload = unpack_record(data, source=str(path))
    if expected_version is not None and version != expected_version:
        raise StorageError(
            f"{path}: version {version}, expected {expected_version}"
        )
    return version, payload
