"""The outcome table: what a node knows about instances that have ended.

Instance ids are derived from request content, so "have I already answered
this?" is one lookup by id, and this table is the only place it is
answered — the same object on a memory-only node, on a node with a
``data_dir``, and on that node after a restart: a bounded, insertion-
ordered ``instance_id -> Outcome`` map, backed by one write-ahead log when
it is given a directory and by nothing otherwise.  The log's three record
kinds (docs/robustness.md, "Durability & recovery")::

    {"event": "submitted", "id", "scheme"}   before the executor exists
    {"id", "scheme", "result"}               the result *is* the terminal record
    {"event": "aborted", "id", "reason"}     closes its ``submitted``

Opening the table folds the log: results become entries; an instance
submitted with no terminal record was in flight when the process died and
becomes a ``crash_recovery`` abort for this process life; an ``aborted``
record only closes its ``submitted``, so a retry after a restart runs
again.  What the fold derives is appended, so nothing is ever wiped to
avoid deriving it twice.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..errors import SerializationError, WalCorruptionError
from ..serialization import hexlify, unhexlify
from .wal import WriteAheadLog


@dataclass
class Outcome:
    """How one instance ended: ``result`` bytes, or a structured abort."""

    scheme: str
    result: bytes | None = None
    reason: str | None = None  # abort reason; None for a finalized result
    error: str | None = None
    #: The instance's ``InstanceRecord`` (trace, timestamps) when it ran in
    #: this process life; the instance manager fills it in for the rest.
    record: object | None = None


def _field(record: object, name: str) -> str:
    value = record.get(name) if isinstance(record, dict) else None
    if not isinstance(value, str):
        raise WalCorruptionError(f"outcome record without a string {name!r}: {record!r}")
    return value


def _submitted(instance_id: str, scheme: str) -> dict:
    return {"event": "submitted", "id": instance_id, "scheme": scheme}


def _result(instance_id: str, scheme: str, result: bytes) -> dict:
    return {"id": instance_id, "scheme": scheme, "result": hexlify(result)}


class DurableResultCache:
    """Bounded ``instance_id -> Outcome`` table, durable given a directory."""

    def __init__(self, directory: Path | str | None = None, max_entries: int = 4096):
        self._max_entries = max_entries
        self._entries: OrderedDict[str, Outcome] = OrderedDict()
        self._wal = WriteAheadLog(directory) if directory is not None else None
        #: What opening the log recovered: finished entries loaded, and the
        #: ``(instance_id, scheme)`` of instances the last life left in flight.
        self.loaded = 0
        self.interrupted: list[tuple[str, str]] = []
        if self._wal is not None:
            self._load()

    def _load(self) -> None:
        pending: dict[str, str] = {}
        replayed = 0
        for record in self._wal.replay():
            replayed += 1
            instance_id = _field(record, "id")
            event = record.get("event")
            if event == "submitted":
                pending[instance_id] = _field(record, "scheme")
                # A node submits only after a miss: an older result for
                # this id had been evicted, so it is not an entry here.
                self._entries.pop(instance_id, None)
            elif event == "aborted":
                pending.pop(instance_id, None)
            elif event is None:
                pending.pop(instance_id, None)
                try:
                    result = unhexlify(_field(record, "result"))
                except SerializationError as exc:
                    raise WalCorruptionError(f"outcome record {record!r}: {exc}") from exc
                self._insert(instance_id, Outcome(_field(record, "scheme"), result))
            else:
                raise WalCorruptionError(f"unknown outcome event {event!r}")
        self.loaded = len(self._entries)
        self.interrupted = list(pending.items())
        if replayed > 2 * self._max_entries:
            # The fold, rewritten: compaction changes what the log weighs,
            # never what it says.
            self._wal.compact(
                [_result(i, o.scheme, o.result) for i, o in self._entries.items()]
                + [_submitted(i, scheme) for i, scheme in self.interrupted]
            )
        for instance_id, scheme in self.interrupted:
            self.abort(
                instance_id,
                scheme,
                "crash_recovery",
                f"instance {instance_id} was in flight when the node crashed",
            )

    def _insert(self, instance_id: str, outcome: Outcome) -> None:
        # An id already present keeps its place: replaying a compaction's
        # rewrite after the history it replaced must not reorder evictions.
        self._entries[instance_id] = outcome
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def _append(self, record: dict) -> None:
        if self._wal is not None:
            self._wal.append(record)

    # Entry first, then the append: a disk that fails it degrades the node
    # to memory-only instead of unlearning an outcome.

    def submit(self, instance_id: str, scheme: str) -> None:
        """Log that an instance is about to exist (fsynced before returning)."""
        self._append(_submitted(instance_id, scheme))

    def put(
        self, instance_id: str, scheme: str, result: bytes, record: object | None = None
    ) -> None:
        """Keep one finalized result (fsynced before returning)."""
        self._insert(instance_id, Outcome(scheme, result, record=record))
        self._append(_result(instance_id, scheme, result))

    def abort(
        self,
        instance_id: str,
        scheme: str,
        reason: str,
        error: str | None = None,
        record: object | None = None,
    ) -> None:
        """Keep one structured abort for this process life."""
        self._insert(instance_id, Outcome(scheme, None, reason, error, record))
        self._append({"event": "aborted", "id": instance_id, "reason": reason})

    def get(self, instance_id: str) -> Outcome | None:
        return self._entries.get(instance_id)

    def items(self) -> list[tuple[str, Outcome]]:
        """``(instance_id, outcome)`` pairs, oldest first."""
        return list(self._entries.items())

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
