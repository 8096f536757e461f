"""Append-only, segmented write-ahead journal with per-record checksums.

Frame layout (big-endian)::

    length (4) | crc32 (4) | payload (length)

Records are JSON documents (small lifecycle events, not bulk data).  The
journal is split into numbered segment files (``wal-00000001.log`` ...);
appends go to the highest-numbered segment and roll to a fresh one once it
exceeds ``segment_max_bytes``, so replay cost and torn-tail repair stay
bounded by one segment.

Crash semantics — the property the recovery path leans on:

* every append is flushed and fsynced before it returns, so an
  acknowledged record survives ``kill -9``;
* a crash *during* an append can leave a **torn final record** (partial
  header or payload at the tail of the last segment).  Replay tolerates
  exactly that: it stops at the tear and the tail is truncated away before
  the next append.
* a record whose frame is fully present but whose CRC fails — or a
  truncated segment with more segments after it — is **corruption**, not a
  tear, and raises :class:`~repro.errors.WalCorruptionError`; recovery must
  not silently skip over damaged history.
* :meth:`WriteAheadLog.compact` replaces the history with a folded list
  of records.  The replacement is written as fresh segments *after* the
  old ones (each fsynced), then the ``start`` marker file is atomically
  pointed at the first of them, and only then are the older segments
  unlinked.  Opening a log first drops what lies below its marker, so a
  kill before the marker flips replays old + (a prefix of) new — callers'
  folds are last-wins, so that reads as the old history — and a kill
  after it replays exactly the new one, however many old segments were
  still lying around.
"""

from __future__ import annotations

import io
import json
import os
import re
import zlib
from pathlib import Path
from typing import Iterator

from ..errors import StorageError, WalCorruptionError
from .atomic import atomic_write_bytes, fsync_directory

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")
_FRAME_HEADER = 8

#: Marker file naming the first live segment; lower-numbered segments are
#: history a compaction replaced.
_START_FILE = "start"

#: Per-record payload sanity bound; journal records are small JSON events,
#: so a larger declared length is either a tear or corruption.
MAX_RECORD_BYTES = 1 << 24


def _segment_name(index: int) -> str:
    return f"wal-{index:08d}.log"


def _scan_segment(segment: Path, final: bool) -> tuple[list[bytes], int | None]:
    """The intact records of one segment, and — when its tail is torn — the
    byte count they end at (else None).  A tear is only tolerated in the
    ``final`` segment; anything else that does not parse is corruption."""
    data = segment.read_bytes()
    records: list[bytes] = []
    offset = 0
    while offset < len(data):
        body = offset + _FRAME_HEADER
        length = int.from_bytes(data[offset : offset + 4], "big")
        payload = data[body : body + length]
        # A partial header or a payload cut short is a crash mid-append;
        # an absurd length cannot be told from garbage, so it is not.
        if body > len(data) or (length <= MAX_RECORD_BYTES and len(payload) < length):
            if not final:
                raise WalCorruptionError(
                    f"{segment}: truncated record but later segments exist"
                )
            return records, offset
        crc = int.from_bytes(data[offset + 4 : body], "big")
        if length > MAX_RECORD_BYTES or zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise WalCorruptionError(f"{segment}: corrupt record at byte {offset}")
        records.append(payload)
        offset = body + length
    return records, None


class WriteAheadLog:
    """One node's durable, replayable event journal."""

    def __init__(self, directory: Path | str, segment_max_bytes: int = 1 << 20):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_max = segment_max_bytes
        self._handle: io.BufferedWriter | None = None
        self._active_index = 0
        # Finish a compaction that died between its marker and its unlinks:
        # from here on the directory holds live segments only.
        self._drop_below(self._read_start())

    # -- segment bookkeeping ---------------------------------------------------

    def _indexed(self) -> list[tuple[int, Path]]:
        """``(index, path)`` of every segment file, in append order."""
        found = []
        for entry in self.directory.iterdir():
            match = _SEGMENT_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return sorted(found)

    def segments(self) -> list[Path]:
        """Segment files in append order."""
        return [path for _, path in self._indexed()]

    def _read_start(self) -> int:
        marker = self.directory / _START_FILE
        if not marker.exists():
            return 0
        try:
            start = int(marker.read_bytes())
        except ValueError as exc:
            raise WalCorruptionError(f"{marker}: not a segment index") from exc
        if not (self.directory / _segment_name(start)).exists():
            raise WalCorruptionError(f"{marker}: names missing segment {start}")
        return start

    def _drop_below(self, first: int) -> None:
        stale = [path for index, path in self._indexed() if index < first]
        for path in stale:
            path.unlink()
        if stale:
            fsync_directory(self.directory)

    def _open_for_append(self) -> io.BufferedWriter:
        if self._handle is None:
            segments = self._indexed()
            if segments:
                self._active_index, last = segments[-1]
                self._repair_tail(last)
                self._handle = open(last, "ab")
            else:
                self._start_segment(1)
        return self._handle

    def _start_segment(self, index: int) -> None:
        self._active_index = index
        self._handle = open(self.directory / _segment_name(index), "ab")
        fsync_directory(self.directory)

    def _repair_tail(self, segment: Path) -> None:
        """Scan the final segment; truncate a torn tail, refuse corruption."""
        _, torn_at = _scan_segment(segment, final=True)
        if torn_at is not None:
            with open(segment, "r+b") as handle:
                handle.truncate(torn_at)
                handle.flush()
                os.fsync(handle.fileno())

    def _roll(self) -> None:
        self.close()  # fsyncs: compaction fills segments without per-record syncs
        self._start_segment(self._active_index + 1)

    # -- append/replay ---------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one JSON record (fsynced before returning)."""
        self._write(record, sync=True)

    def _write(self, record: dict, sync: bool) -> None:
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        frame = (
            len(payload).to_bytes(4, "big")
            + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
            + payload
        )
        handle = self._open_for_append()
        try:
            handle.write(frame)
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise StorageError(f"journal append failed: {exc}") from exc
        if handle.tell() >= self._segment_max:
            self._roll()

    def replay(self) -> Iterator[dict]:
        """Yield every intact record of the live history, in order.

        Stops silently at a torn final record (crash during the last
        append); raises :class:`WalCorruptionError` for damage anywhere
        else.  Records that fail to parse as JSON count as corruption too.
        """
        segments = self.segments()
        for segment in segments:
            for payload in _scan_segment(segment, final=segment is segments[-1])[0]:
                try:
                    yield json.loads(payload)
                except ValueError as exc:
                    raise WalCorruptionError(
                        f"{segment}: record is not valid JSON: {exc}"
                    ) from exc

    def compact(self, records: list[dict]) -> None:
        """Replace the whole history with ``records`` (module docstring:
        a kill at any point replays as the old history or as the new one).
        Costs one fsync per segment written, not one per record."""
        self._open_for_append()  # repairs a torn tail: the old history stays replayable
        self._roll()
        first = self._active_index
        for record in records:
            self._write(record, sync=False)
        self.sync()
        atomic_write_bytes(self.directory / _START_FILE, str(first).encode())
        self._drop_below(first)

    def sync(self) -> None:
        """Flush + fsync the active segment (graceful-shutdown hook)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None
