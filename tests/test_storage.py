"""Durability subsystem tests: atomic snapshots, WAL crash semantics,
keystore/result persistence across simulated ``kill -9``, overload
shedding, and client-side retry.

The WAL cases pin down the crash-safety contract of docs/robustness.md:
a torn *final* record (crash mid-append) is tolerated and truncated away,
while a CRC-failing record anywhere — or a truncated segment with later
segments after it — is corruption and must raise, never be skipped.
"""

import asyncio
import json
import os
import shutil
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.orchestration import InstanceManager, InstanceRecord, KeyManager
from repro.core.tri import ThresholdRoundProtocol
from repro.errors import (
    RpcError,
    StorageError,
    WalCorruptionError,
)
from repro.schemes.keystore import export_key_share
from repro.serialization import hexlify
from repro.storage import results as results_module
from repro.storage import (
    DurableResultCache,
    Outcome,
    WriteAheadLog,
    atomic_write_bytes,
    pack_record,
    read_versioned,
    unpack_record,
    write_versioned,
)
from repro.telemetry import MetricRegistry


class TestAtomicContainer:
    def test_pack_unpack_round_trip(self):
        version, payload = unpack_record(pack_record(b"hello", version=7))
        assert (version, payload) == (7, b"hello")

    def test_bad_magic_rejected(self):
        data = bytearray(pack_record(b"hello"))
        data[:4] = b"XXXX"
        with pytest.raises(StorageError, match="bad magic"):
            unpack_record(bytes(data))

    def test_truncated_container_rejected(self):
        data = pack_record(b"hello world")
        with pytest.raises(StorageError, match="truncated"):
            unpack_record(data[:-3])
        with pytest.raises(StorageError, match="truncated"):
            unpack_record(data[:6])

    def test_crc_mismatch_rejected(self):
        data = bytearray(pack_record(b"hello world"))
        data[-1] ^= 0xFF  # flip one payload byte
        with pytest.raises(StorageError, match="CRC32"):
            unpack_record(bytes(data))

    def test_versioned_file_round_trip(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_versioned(path, b"state", version=3)
        assert read_versioned(path) == (3, b"state")
        with pytest.raises(StorageError, match="version"):
            read_versioned(path, expected_version=4)

    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "file.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]


class TestWriteAheadLog:
    def test_empty_journal_replays_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        assert list(wal.replay()) == []
        wal.close()

    def test_append_replay_round_trip_across_reopen(self, tmp_path):
        records = [{"event": "submitted", "n": i} for i in range(20)]
        wal = WriteAheadLog(tmp_path / "wal")
        for record in records:
            wal.append(record)
        assert list(wal.replay()) == records
        wal.close()
        # A fresh handle over the same directory sees the same history.
        assert list(WriteAheadLog(tmp_path / "wal").replay()) == records

    def test_segments_roll_and_replay_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=64)
        records = [{"n": i, "pad": "x" * 20} for i in range(12)]
        for record in records:
            wal.append(record)
        assert len(wal.segments()) > 1
        assert list(wal.replay()) == records
        wal.close()

    def test_torn_final_record_tolerated_and_repaired(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        records = [{"n": i} for i in range(5)]
        for record in records:
            wal.append(record)
        wal.close()
        # Crash mid-append: the tail of the last segment is cut short.
        segment = wal.segments()[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-4])
        # Replay stops silently at the tear ...
        assert list(WriteAheadLog(tmp_path / "wal").replay()) == records[:-1]
        # ... and the next append first truncates the torn tail away.
        wal2 = WriteAheadLog(tmp_path / "wal")
        wal2.append({"n": 99})
        assert list(wal2.replay()) == records[:-1] + [{"n": 99}]
        wal2.close()

    def test_partial_header_at_tail_is_torn(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append({"n": 0})
        wal.close()
        segment = wal.segments()[-1]
        segment.write_bytes(segment.read_bytes() + b"\x00\x00\x01")
        assert list(WriteAheadLog(tmp_path / "wal").replay()) == [{"n": 0}]

    def test_corrupt_crc_mid_segment_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for i in range(5):
            wal.append({"n": i})
        wal.close()
        segment = wal.segments()[-1]
        data = bytearray(segment.read_bytes())
        data[10] ^= 0xFF  # damage the first record's payload, CRC intact
        segment.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="corrupt record"):
            list(WriteAheadLog(tmp_path / "wal").replay())

    def test_torn_non_final_segment_is_corruption(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=64)
        for i in range(12):
            wal.append({"n": i, "pad": "x" * 20})
        wal.close()
        segments = wal.segments()
        assert len(segments) > 1
        first = segments[0]
        first.write_bytes(first.read_bytes()[:-4])
        with pytest.raises(WalCorruptionError, match="later segments"):
            list(WriteAheadLog(tmp_path / "wal").replay())

    def test_compact_replaces_history(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=64)
        for i in range(12):
            wal.append({"n": i, "pad": "x" * 20})
        old_segments = wal.segments()
        kept = [{"n": i, "pad": "y" * 20} for i in (3, 7, 11)]
        wal.compact(kept)
        assert list(wal.replay()) == kept
        assert not set(old_segments) & set(wal.segments())
        assert all(not segment.exists() for segment in old_segments)
        wal.append({"n": 12})
        wal.close()
        assert list(WriteAheadLog(tmp_path / "wal").replay()) == kept + [{"n": 12}]
        # Compacting to nothing is a history too.
        wal.compact([])
        assert list(WriteAheadLog(tmp_path / "wal").replay()) == []
        wal.close()


class TestDurableKeystore:
    """``KeyManager(path)``: the node's key shares on disk."""

    def test_round_trip_across_simulated_kill(self, tmp_path, keys_bls04):
        path = tmp_path / "keystore.bin"
        share = keys_bls04.share_for(2)
        keys = KeyManager(path)
        keys.register("bls04", "bls04", share.public, share)
        assert "bls04" in keys and len(keys) == 1
        # kill -9: no close/flush call — a fresh manager over the same path
        # must see the complete snapshot (every mutation is atomic).
        (entry,) = KeyManager(path).list_keys()
        assert (entry.key_id, entry.scheme) == ("bls04", "bls04")
        assert export_key_share("bls04", entry.key_share) == export_key_share(
            "bls04", share
        )

    def test_corrupt_snapshot_rejected(self, tmp_path, keys_bls04):
        path = tmp_path / "keystore.bin"
        share = keys_bls04.share_for(1)
        KeyManager(path).register("bls04", "bls04", share.public, share)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            KeyManager(path)


class TestDurableResultCache:
    def test_persistence_across_reopen(self, tmp_path):
        cache = DurableResultCache(tmp_path / "results")
        cache.put("sign-aa", "bls04", b"\x01\x02")
        cache.put("coin-bb", "cks05", b"\x03")
        revived = DurableResultCache(tmp_path / "results")
        assert revived.get("sign-aa") == Outcome("bls04", b"\x01\x02")
        assert revived.get("coin-bb") == Outcome("cks05", b"\x03")
        assert "sign-aa" in revived and len(revived) == 2
        cache.close()
        revived.close()

    def test_trim_keeps_newest(self, tmp_path):
        cache = DurableResultCache(tmp_path / "results", max_entries=3)
        for i in range(6):
            cache.put(f"id-{i}", "bls04", bytes([i]))
        assert len(cache) == 3
        assert cache.get("id-2") is None
        assert cache.get("id-5") == Outcome("bls04", bytes([5]))
        cache.close()

    def test_compaction_bounds_the_log(self, tmp_path):
        directory = tmp_path / "results"
        cache = DurableResultCache(directory, max_entries=4)
        for i in range(12):  # 12 appended records, 4 live entries
            cache.put(f"id-{i}", "bls04", bytes([i]))
        cache.close()
        # Reopening sees 12 > 2 * 4 replayed records and compacts.
        revived = DurableResultCache(directory, max_entries=4)
        assert len(revived) == 4
        assert revived.get("id-11") == Outcome("bls04", bytes([11]))
        revived.close()
        assert len(list(WriteAheadLog(directory).replay())) == 4


# ---------------------------------------------------------------------------
# Crash injection: die at the k-th fsync / unlink / rename of an operation.
# ---------------------------------------------------------------------------


class _Died(Exception):
    """The process 'died' inside an I/O call (not an OSError: nothing in
    the storage layer may catch it and carry on)."""


class _Crash:
    """What the block under :func:`_dying_at` did before it ended."""

    def __init__(self):
        self.calls = 0
        self.synced = {}  # inode -> file size at its last completed fsync


def _inode(stat):
    return stat.st_dev, stat.st_ino


@contextmanager
def _dying_at(k):
    """Raise :class:`_Died` from the k-th durability call made in the block
    (``os.fsync``, ``os.unlink``, ``os.replace``: every point at which the
    WAL, its compaction and the atomic marker write commit something).
    ``k=None`` only counts."""
    crash = _Crash()
    real = {name: getattr(os, name) for name in ("fsync", "unlink", "replace")}

    def wrapper(name):
        def call(*args, **kwargs):
            crash.calls += 1
            if crash.calls == k:
                raise _Died(f"{name} #{k}")
            outcome = real[name](*args, **kwargs)
            if name == "fsync":
                stat = os.fstat(args[0])
                crash.synced[_inode(stat)] = stat.st_size
            return outcome

        return call

    with patch.multiple(os, **{name: wrapper(name) for name in real}):
        yield crash


def _segment_sizes(directory):
    return {
        path: path.stat().st_size for path in sorted(directory.glob("wal-*.log"))
    }


def _tear_tail(directory, before, crash, keep):
    """Lose part of what the dying operation wrote to the newest segment:
    bytes beyond both its size ``before`` the operation and its last
    completed fsync were never acknowledged, so a crash may keep any prefix
    of them.  ``keep`` in [0, 1] picks the prefix."""
    sizes = _segment_sizes(directory)
    if not sizes:
        return
    last = max(sizes)
    floor = max(
        min(before.get(last, 0), sizes[last]),  # a tail repair may have cut it
        crash.synced.get(_inode(last.stat()), 0),
    )
    with open(last, "r+b") as handle:
        handle.truncate(floor + int((sizes[last] - floor) * keep))


def _small_segments(directory):
    return WriteAheadLog(directory, segment_max_bytes=160)


def _view(table):
    return [
        (instance_id, outcome.result if outcome.reason is None else outcome.reason)
        for instance_id, outcome in table.items()
    ]


class _LogModel:
    """Reference fold of the outcome log: a list of logical records and the
    table a node must read from it.  ``MAX`` entries, oldest evicted."""

    MAX = 4

    @classmethod
    def _keep(cls, table, instance_id, value):
        table[instance_id] = value
        while len(table) > cls.MAX:
            del table[next(iter(table))]

    @classmethod
    def fold(cls, log):
        results, pending = {}, {}
        for kind, instance_id, value in log:
            if kind == "submitted":
                pending[instance_id] = None
                results.pop(instance_id, None)
                continue
            pending.pop(instance_id, None)
            if kind == "result":
                cls._keep(results, instance_id, value)
        return results, list(pending)

    @classmethod
    def opened(cls, log, closed=None):
        """(table view, log) after a reopen that appended ``aborted`` for
        the first ``closed`` interrupted instances (None: all — it finished)."""
        results, pending = cls.fold(log)
        view = dict(results)
        for instance_id in pending:
            cls._keep(view, instance_id, "crash_recovery")
        done = pending if closed is None else pending[:closed]
        return list(view.items()), log + [("aborted", i, None) for i in done]


class OutcomeTableMachine(RuleBasedStateMachine):
    """put / abort / submit / get / reopen / die-anywhere against
    :class:`_LogModel`.  After a death the model holds every log the disk
    may legitimately contain; the next completed reopen must read as one
    of them, and only those it reads as stay possible."""

    ids = st.sampled_from([f"id-{n}" for n in range(9)])
    deaths = st.integers(min_value=1, max_value=14)
    tears = st.sampled_from([0.0, 0.5, 1.0])

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="outcome-machine-"))
        self.directory = self.root / "results"
        self._patch = patch.object(results_module, "WriteAheadLog", _small_segments)
        self._patch.start()
        self.table = self._open()
        self.logs = [[]]  # every log the disk may hold (one, unless a death left doubt)
        self.view = []  # what the live table must read

    def teardown(self):
        self.table.close()
        self._patch.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    def _open(self):
        return DurableResultCache(self.directory, max_entries=_LogModel.MAX)

    def _live(self, instance_id, value):
        view = dict(self.view)
        _LogModel._keep(view, instance_id, value)
        self.view = list(view.items())

    def _recover(self, candidates, before, crash, die_at=None, tear=1.0):
        """Reopen after a death until a reopen completes (a reopen may die
        once more, at ``die_at``); the table must then match one candidate."""
        handle = self.table._wal._handle
        if handle is not None:
            handle.close()
        _tear_tail(self.directory, before, crash, tear)
        if die_at is not None:
            before = _segment_sizes(self.directory)
            try:
                with _dying_at(die_at) as crash:
                    self.table = self._open()
            except _Died:
                candidates = [
                    _LogModel.opened(log, closed)[1]
                    for log in candidates
                    for closed in range(len(_LogModel.fold(log)[1]) + 1)
                ]
                _tear_tail(self.directory, before, crash, tear)
                self.table = self._open()
        else:
            self.table = self._open()
        self.view = _view(self.table)
        opened = [_LogModel.opened(list(log)) for log in {tuple(c) for c in candidates}]
        self.logs = [log for view, log in opened if view == self.view]
        assert self.logs, (self.view, [view for view, _ in opened])

    def _mutate(self, record, call, live_value, die_at, tear):
        before = _segment_sizes(self.directory)
        try:
            with _dying_at(die_at) as crash:
                call()
        except _Died:
            self._recover(
                self.logs + [log + [record] for log in self.logs], before, crash, tear=tear
            )
            return
        self.logs = [log + [record] for log in self.logs]
        if live_value is not None:
            self._live(record[1], live_value)

    @rule(instance_id=ids, result=st.binary(max_size=40), die_at=st.none() | deaths, tear=tears)
    def put(self, instance_id, result, die_at, tear):
        self._mutate(
            ("result", instance_id, result),
            lambda: self.table.put(instance_id, "s", result),
            result,
            die_at,
            tear,
        )

    @rule(instance_id=ids, die_at=st.none() | deaths, tear=tears)
    def submit(self, instance_id, die_at, tear):
        # The manager's contract: only an id the table does not hold.
        if self.table.get(instance_id) is not None:
            return
        self._mutate(
            ("submitted", instance_id, None),
            lambda: self.table.submit(instance_id, "s"),
            None,
            die_at,
            tear,
        )

    @rule(instance_id=ids, die_at=st.none() | deaths, tear=tears)
    def abort(self, instance_id, die_at, tear):
        self._mutate(
            ("aborted", instance_id, None),
            lambda: self.table.abort(instance_id, "s", "timeout"),
            "timeout",
            die_at,
            tear,
        )

    @rule(die_at=st.none() | deaths, tear=tears, clean=st.booleans())
    def reopen(self, die_at, tear, clean):
        """Restart: a clean close or a kill -9, then a reopen that may die
        during recovery or compaction before one finally completes."""
        if clean:
            self.table.close()
        self._recover(self.logs, _segment_sizes(self.directory), _Crash(), die_at, tear)

    @invariant()
    def reads_like_the_model(self):
        assert _view(self.table) == self.view
        assert len(self.table) <= _LogModel.MAX
        for instance_id, value in self.view:
            outcome = self.table.get(instance_id)
            assert (outcome.result if outcome.reason is None else outcome.reason) == value


OutcomeTableMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestOutcomeTableMachine = OutcomeTableMachine.TestCase


class TestCrashPoints:
    """Every death index, exhaustively, for the three multi-step paths."""

    RESULTS = {f"id-{i}": bytes([i]) * 9 for i in range(9)}

    def _table(self, directory):
        with patch.object(results_module, "WriteAheadLog", _small_segments):
            return DurableResultCache(directory, max_entries=4)

    def _sweep(self, tmp_path, prepare, operate):
        """Run ``operate`` on a copy of the prepared directory once per
        death index (as many as an undisturbed run makes durability
        calls); yields each directory as its death left it."""
        pristine = tmp_path / "pristine"
        prepare(pristine)
        with _dying_at(None) as crash:
            shutil.copytree(pristine, tmp_path / "count")
            operate(tmp_path / "count")
        assert crash.calls >= 2
        for k in range(1, crash.calls + 1):
            directory = tmp_path / f"die-{k}"
            shutil.copytree(pristine, directory)
            with pytest.raises(_Died), _dying_at(k):
                operate(directory)
            yield directory

    def test_put_is_all_or_nothing(self, tmp_path):
        def prepare(directory):
            table = self._table(directory)
            for instance_id in ("id-0", "id-1"):
                table.put(instance_id, "s", self.RESULTS[instance_id])
            table.close()

        def operate(directory):
            table = self._table(directory)
            for instance_id in ("id-2", "id-3"):  # the first rolls a segment
                table.put(instance_id, "s", self.RESULTS[instance_id])

        for directory in self._sweep(tmp_path, prepare, operate):
            view = dict(_view(self._table(directory)))
            assert view.items() <= self.RESULTS.items()
            assert {"id-0", "id-1"} <= set(view)
            assert list(view) == sorted(view)  # a prefix, in put order

    def test_compaction_never_loses_a_retained_result(self, tmp_path):
        """ISSUE 20's probe: 9 results at ``max_entries=4``, reopen (which
        compacts), die anywhere — the 4 retained results all survive."""

        def prepare(directory):
            table = self._table(directory)
            for instance_id, result in self.RESULTS.items():
                table.put(instance_id, "s", result)
            table.close()

        deaths = 0
        for directory in self._sweep(tmp_path, prepare, self._table):
            deaths += 1
            assert _view(self._table(directory)) == list(self.RESULTS.items())[-4:]
        assert deaths >= 6  # roll, segment syncs, marker, unlinks

    def test_recovery_marks_interrupted_instances_once(self, tmp_path):
        def prepare(directory):
            table = self._table(directory)
            table.put("id-0", "s", self.RESULTS["id-0"])
            for instance_id in ("id-1", "id-2", "id-3"):
                table.submit(instance_id, "s")
            # no close: kill -9 with three instances in flight

        for directory in self._sweep(tmp_path, prepare, self._table):
            view = dict(_view(self._table(directory)))
            assert view.pop("id-0") == self.RESULTS["id-0"]
            # The dead recovery closed a prefix; the rest is still marked.
            assert list(view.items()) == [
                (i, "crash_recovery") for i in ("id-1", "id-2", "id-3")
            ][-len(view) or 3 :]


# ---------------------------------------------------------------------------
# Hostile bytes at the outcome-log decoder: a frozen accept/reject table.
# ---------------------------------------------------------------------------


def _frame(payload: bytes, crc: int | None = None) -> bytes:
    crc = zlib.crc32(payload) & 0xFFFFFFFF if crc is None else crc
    return len(payload).to_bytes(4, "big") + crc.to_bytes(4, "big") + payload


def _json(record) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode()


_GOOD = [
    {"event": "submitted", "id": "a", "scheme": "s"},
    {"id": "a", "scheme": "s", "result": "0102"},
    {"event": "submitted", "id": "b", "scheme": "s"},
]
_GOOD_VIEW = [("a", b"\x01\x02"), ("b", "crash_recovery")]
_CORRUPT = "corrupt"

#: (case, {file name: bytes}, expected view or _CORRUPT).  Frozen: a row
#: that changes sides is a behaviour change to be argued, not a test to fix.
_HOSTILE = [
    ("well-formed", {1: [_frame(_json(r)) for r in _GOOD]}, _GOOD_VIEW),
    ("empty directory", {}, []),
    ("empty segment", {1: []}, []),
    (
        "torn final record",
        {1: [_frame(_json(r)) for r in _GOOD[:2]] + [_frame(_json(_GOOD[2]))[:-3]]},
        [("a", b"\x01\x02")],
    ),
    (
        "torn final header",
        {1: [_frame(_json(r)) for r in _GOOD[:2]] + [b"\x00\x00"]},
        [("a", b"\x01\x02")],
    ),
    (
        "truncated record before a later segment",
        {1: [_frame(_json(_GOOD[0]))[:-3]], 2: [_frame(_json(_GOOD[1]))]},
        _CORRUPT,
    ),
    (
        "crc flipped",
        {1: [_frame(_json(_GOOD[0])), _frame(_json(_GOOD[1]), crc=1), _frame(_json(_GOOD[2]))]},
        _CORRUPT,
    ),
    ("absurd length", {1: [b"\xff\xff\xff\xff" + b"\x00" * 12]}, _CORRUPT),
    ("not json", {1: [_frame(b"{not json")]}, _CORRUPT),
    ("not utf-8", {1: [_frame(b"\xff\xfe{}")]}, _CORRUPT),
    ("json list", {1: [_frame(_json([1, 2]))]}, _CORRUPT),
    ("json null", {1: [_frame(_json(None))]}, _CORRUPT),
    ("json string", {1: [_frame(_json("submitted"))]}, _CORRUPT),
    ("id missing", {1: [_frame(_json({"scheme": "s", "result": "00"}))]}, _CORRUPT),
    ("id not a string", {1: [_frame(_json({"id": 7, "scheme": "s", "result": "00"}))]}, _CORRUPT),
    ("id a list", {1: [_frame(_json({"event": "aborted", "id": ["a"]}))]}, _CORRUPT),
    ("scheme null", {1: [_frame(_json({"event": "submitted", "id": "a", "scheme": None}))]}, _CORRUPT),
    ("result missing", {1: [_frame(_json({"id": "a", "scheme": "s"}))]}, _CORRUPT),
    ("result a number", {1: [_frame(_json({"id": "a", "scheme": "s", "result": 12}))]}, _CORRUPT),
    ("result not hex", {1: [_frame(_json({"id": "a", "scheme": "s", "result": "zz"}))]}, _CORRUPT),
    ("result odd hex", {1: [_frame(_json({"id": "a", "scheme": "s", "result": "abc"}))]}, _CORRUPT),
    ("unknown event", {1: [_frame(_json({"event": "finalized", "id": "a"}))]}, _CORRUPT),
    ("event a number", {1: [_frame(_json({"event": 3, "id": "a"}))]}, _CORRUPT),
    ("event a dict", {1: [_frame(_json({"event": {}, "id": "a"}))]}, _CORRUPT),
    (
        "unknown keys are ignored",
        {1: [_frame(_json({"id": "a", "scheme": "s", "result": "", "extra": [1]}))]},
        [("a", b"")],
    ),
    (
        "aborted without its submitted",
        {1: [_frame(_json({"event": "aborted", "id": "z", "reason": 5}))]},
        [],
    ),
    (
        "marker skips replaced history",
        {1: [_frame(b"garbage the marker retired")], 2: [_frame(_json(r)) for r in _GOOD], "start": b"2"},
        _GOOD_VIEW,
    ),
    ("marker names a missing segment", {1: [_frame(_json(_GOOD[1]))], "start": b"7"}, _CORRUPT),
    ("marker beyond every segment", {"start": b"1"}, _CORRUPT),
    ("marker negative", {1: [], "start": b"-1"}, _CORRUPT),
    ("marker not a number", {1: [], "start": b"one"}, _CORRUPT),
    ("marker empty", {1: [], "start": b""}, _CORRUPT),
    ("marker binary", {1: [], "start": b"\xff\x00"}, _CORRUPT),
]


class TestHostileOutcomeLog:
    @pytest.mark.parametrize(
        "files,expected", [row[1:] for row in _HOSTILE], ids=[row[0] for row in _HOSTILE]
    )
    def test_corruption_error_or_a_valid_table(self, tmp_path, files, expected):
        directory = tmp_path / "results"
        directory.mkdir()
        for name, content in files.items():
            if isinstance(name, int):
                name, content = f"wal-{name:08d}.log", b"".join(content)
            (directory / name).write_bytes(content)
        if expected is _CORRUPT:
            with pytest.raises(WalCorruptionError):
                DurableResultCache(directory)
        else:
            table = DurableResultCache(directory)
            assert _view(table) == expected
            table.close()

    @given(st.binary(max_size=200), st.sampled_from(["wal-00000001.log", "start"]))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_never_raise_anything_else(self, data, name):
        with tempfile.TemporaryDirectory() as root:
            directory = Path(root)
            (directory / "wal-00000001.log").write_bytes(_frame(_json(_GOOD[1])))
            (directory / name).write_bytes(data)
            try:
                table = DurableResultCache(directory)
            except WalCorruptionError:
                return
            assert all(isinstance(o.result, bytes) for _, o in table.items())
            table.close()


# ---------------------------------------------------------------------------
# One fold: the manager over the table.
# ---------------------------------------------------------------------------


class _Instant(ThresholdRoundProtocol):
    """A protocol that needs nobody: finalizes in its first round."""

    def do_round(self):
        return []

    def update(self, message):
        pass

    def is_ready_for_next_round(self):
        return False

    def is_ready_to_finalize(self):
        return True

    def progress(self):
        return 1, 1

    def finalize(self):
        return b"result of " + self.instance_id.encode()


async def _no_send(message):
    return None


async def _run(manager, instance_id):
    record = manager.start_instance(_Instant(instance_id, 1), "cks05")
    result = await manager.result(record)
    while instance_id in manager._executors:
        await asyncio.sleep(0)  # the executor is traded for its entry
    return result


def _counting(owner, name):
    """Patch a method with a mock that still does the real thing; its
    ``call_count`` is the number of calls made under the ``with``."""
    return patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))


class TestManagerOverTheTable:
    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_records_are_bounded_and_the_newest_is_a_hit(self, tmp_path, durable):
        async def scenario():
            table = DurableResultCache(tmp_path / "results" if durable else None, 8)
            manager = InstanceManager(
                1, _no_send, registry=MetricRegistry(), outcomes=table
            )
            for index in range(50):
                await _run(manager, f"inst-{index}")
                assert len(manager.records()) <= 8
            assert [r.instance_id for r in manager.records()] == [
                f"inst-{index}" for index in range(42, 50)
            ]
            hits = manager.metrics.coalesced_requests.labels("result_cache")
            assert await _run(manager, "inst-49") == b"result of inst-49"
            assert hits.value == 1
            # Evicted: the oldest duplicate runs again (and is the newest now).
            assert "inst-0" not in table
            assert await _run(manager, "inst-0") == b"result of inst-0"
            assert hits.value == 1 and "inst-0" in table
            await manager.shutdown()
            table.close()

        asyncio.run(scenario())

    def test_one_fold_counted(self, tmp_path):
        """A finished instance costs two appends, a duplicate none and one
        lookup — in the life that ran it and in the next."""

        async def scenario(expect_loaded):
            table = DurableResultCache(tmp_path / "results")
            assert table.loaded == expect_loaded
            manager = InstanceManager(
                1, _no_send, registry=MetricRegistry(), outcomes=table
            )
            if not expect_loaded:
                with _counting(WriteAheadLog, "append") as appends:
                    await _run(manager, "inst")
                assert appends.call_count == 2
            with _counting(WriteAheadLog, "append") as appends, _counting(
                DurableResultCache, "get"
            ) as lookups:
                assert await _run(manager, "inst") == b"result of inst"
            assert (appends.call_count, lookups.call_count) == (0, 1)
            await manager.shutdown()
            table.close()

        asyncio.run(scenario(expect_loaded=0))
        asyncio.run(scenario(expect_loaded=1))

    def test_recovery_builds_no_record_per_result(self, tmp_path):
        table = DurableResultCache(tmp_path / "results")
        for index in range(20):
            table.put(f"inst-{index}", "cks05", bytes([index]))
        table.close()
        with _counting(InstanceRecord, "__init__") as built:
            table = DurableResultCache(tmp_path / "results")
            manager = InstanceManager(
                1, _no_send, registry=MetricRegistry(), outcomes=table
            )
            assert table.loaded == 20 and built.call_count == 0
            assert manager.record("inst-7").result == bytes([7])
            assert built.call_count == 1  # built on demand, for the one asked about
            assert manager.record("inst-7") is manager.record("inst-7")
        table.close()

    def test_control_plane_instances_leave_no_trace(self, tmp_path):
        async def scenario():
            table = DurableResultCache(tmp_path / "results")
            manager = InstanceManager(
                1, _no_send, registry=MetricRegistry(), outcomes=table
            )
            with _counting(WriteAheadLog, "append") as appends:
                for _ in range(2):  # a repeat is a new run, not a duplicate
                    record = manager.start_instance(
                        _Instant("refresh-1", 1), "cks05", retain=False
                    )
                    assert await manager.result(record) == b"result of refresh-1"
                    while "refresh-1" in manager._executors:
                        await asyncio.sleep(0)
                    assert "refresh-1" not in table
            assert appends.call_count == 0 and len(table) == 0
            assert manager.metrics.coalesced_requests.labels("result_cache").value == 0
            await manager.shutdown()
            table.close()

        asyncio.run(scenario())


class TestAnsweredOnlyWhenDurable:
    def test_a_waiter_resumes_after_the_outcome_is_tabled(self, tmp_path, keys_cks05):
        """No result is answered before it is durable: the moment a waiter
        on a coin resumes, every node's outcome table (and so its log)
        already holds the coin, before the executor is released."""
        from repro.service.cluster import LocalCluster

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}, data_root=tmp_path) as cluster:
                for index in range(3):
                    records = [
                        node.submit_request("coin", "coin", b"coin %d" % index)
                        for node in cluster.nodes
                    ]
                    for node, record in zip(cluster.nodes, records):
                        coin = await node.instances.result(record)
                        outcome = node._outcomes.get(record.instance_id)
                        assert outcome is not None and outcome.result == coin

        asyncio.run(scenario())


@pytest.mark.integration
class TestOverloadShedding:
    def test_excess_submissions_rejected_with_hint(self, all_keys):
        from repro.service.cluster import LocalCluster

        async def scenario():
            async with LocalCluster(
                {"bls04": all_keys["bls04"]},
                max_pending_instances=2,
                overload_retry_after=0.125,
                instance_timeout=30.0,
            ) as cluster:
                # A lone node (its peers are down): every submission stays
                # pending, so the third one must be shed.
                await cluster.stop(2, 3, 4)
                node = cluster.nodes[0]
                node.submit_request("sign", "bls04", b"pending-1")
                node.submit_request("sign", "bls04", b"pending-2")
                with pytest.raises(RpcError) as err:
                    node.submit_request("sign", "bls04", b"one too many")
                assert err.value.reason == "overloaded"
                assert err.value.retry_after == 0.125
                rejected = node.registry.get("repro_instance_rejected_total")
                assert rejected.labels("overloaded").value == 1
                # Duplicate of an *admitted* request is not shed: it maps
                # onto the existing instance.
                node.submit_request("sign", "bls04", b"pending-1")
                assert rejected.labels("overloaded").value == 1

        asyncio.run(scenario())


@pytest.mark.integration
class TestClientRetry:
    def test_retries_after_overloaded_then_succeeds(self):
        from repro.service.client import ThetacryptClient

        async def scenario():
            calls = {"count": 0}

            async def on_client(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        writer.close()
                        return
                    request = json.loads(line)
                    calls["count"] += 1
                    if calls["count"] == 1:
                        response = {
                            "id": request["id"],
                            "error": "node overloaded",
                            "error_reason": "overloaded",
                            "retry_after": 0.01,
                        }
                    else:
                        response = {
                            "id": request["id"],
                            "result": {"result": hexlify(b"ok")},
                        }
                    writer.write(json.dumps(response).encode() + b"\n")
                    await writer.drain()

            server = await asyncio.start_server(on_client, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ThetacryptClient(
                {1: ("127.0.0.1", port)}, retry_base=0.005, retry_cap=0.02
            )
            try:
                result = await client.call(1, "sign", {"key_id": "k", "data": ""})
                assert result == {"result": hexlify(b"ok")}
                assert calls["count"] == 2
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_non_idempotent_methods_never_retried(self):
        from repro.service.client import ThetacryptClient

        async def scenario():
            calls = {"count": 0}

            async def on_client(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        writer.close()
                        return
                    request = json.loads(line)
                    calls["count"] += 1
                    writer.write(
                        json.dumps(
                            {
                                "id": request["id"],
                                "error": "node overloaded",
                                "error_reason": "overloaded",
                                "retry_after": 0.01,
                            }
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()

            server = await asyncio.start_server(on_client, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ThetacryptClient({1: ("127.0.0.1", port)})
            try:
                with pytest.raises(RpcError):
                    await client.call(1, "run_dkg", {"key_id": "k"})
                assert calls["count"] == 1
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
