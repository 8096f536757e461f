"""Durable consume-once journal for the precompute pipeline.

The precompute pool (``repro.core.orchestration.precompute``) serves each
staged entry at most once — across process lives.  This journal gives the
pool that guarantee on top of the segmented :class:`WriteAheadLog`:

* ``stage`` appends the entry (payload included for durable entries)
  before it becomes visible in the pool;
* ``consume`` appends — and fsyncs — the consumption record *before* the
  payload is handed to a protocol instance, so a crash at any later point
  replays as "already consumed" and the entry is never re-served;
* volatile entries (FROST nonce material, whose secrecy forbids resting
  on disk) are journaled without a payload and dropped on replay — a
  restart cannot double-use what it cannot restore.

Opening the journal compacts it (:meth:`WriteAheadLog.compact`): the
surviving entries replace the history, so consumed entries do not
accumulate across restarts — and a kill mid-compaction replays either the
old history or the survivors, never a ``staged`` without its ``consumed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..serialization import hexlify, unhexlify
from .wal import WriteAheadLog


@dataclass(frozen=True)
class StagedEntry:
    """One pool entry as the journal knows it."""

    seq: int
    instance_id: str
    key_id: str
    op: str
    payload: bytes | None  # None = volatile (never restored after a restart)


def _staged(entry: StagedEntry) -> dict:
    record = {
        "event": "staged",
        "seq": entry.seq,
        "id": entry.instance_id,
        "key": entry.key_id,
        "op": entry.op,
    }
    if entry.payload is not None:
        record["payload"] = hexlify(entry.payload)
    return record


class PoolJournal:
    """WAL-backed staged/consumed ledger for one node's precompute pool."""

    def __init__(self, directory: Path | str):
        self._wal = WriteAheadLog(directory)
        self._next_seq = 1
        self._survivors: list[StagedEntry] = []
        self._load()

    def _load(self) -> None:
        staged: dict[int, StagedEntry] = {}
        top = 0
        for record in self._wal.replay():
            seq = int(record.get("seq", 0))
            top = max(top, seq)
            event = record.get("event")
            if event == "staged":
                payload = record.get("payload")
                staged[seq] = StagedEntry(
                    seq,
                    record.get("id", ""),
                    record.get("key", ""),
                    record.get("op", ""),
                    unhexlify(payload) if payload is not None else None,
                )
            elif event == "consumed":
                staged.pop(seq, None)
        self._next_seq = top + 1
        self._survivors = [
            entry
            for seq, entry in sorted(staged.items())
            if entry.payload is not None
        ]
        self._wal.compact([_staged(entry) for entry in self._survivors])

    @property
    def survivors(self) -> list[StagedEntry]:
        """Entries that were staged-but-unconsumed when the journal opened."""
        return list(self._survivors)

    def stage(
        self,
        instance_id: str,
        key_id: str,
        op: str,
        payload: bytes | None,
    ) -> int:
        """Record a newly staged entry; returns its consume sequence."""
        seq = self._next_seq
        self._next_seq += 1
        self._wal.append(_staged(StagedEntry(seq, instance_id, key_id, op, payload)))
        return seq

    def consume(self, seq: int) -> None:
        """Record a consumption durably, *before* the entry is served."""
        self._wal.append({"event": "consumed", "seq": seq})

    def close(self) -> None:
        self._wal.close()
