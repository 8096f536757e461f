"""The precomputed-share pipeline: threshold latency hidden behind pools.

The paper serves every threshold operation strictly on-demand, so each
request pays share creation, share verification, and combination in line
with the caller.  "The Latency Price of Threshold Cryptosystems in
Blockchains" (PAPERS.md) identifies preprocessing as the lever that
removes that price; FROST's nonce pool (``core.protocols.frost``) is the
design's own sketch of it.  This module generalizes that sketch to every
scheme behind one per-(key, operation) **precompute pool**:

* **Announce** — a client names upcoming requests (the ciphertexts an
  ordering layer has accepted, the messages awaiting signature slots).
  Each node derives the same deterministic instance id it would derive
  for the real request.
* **Refill** — a background task materializes this node's own share for
  each announced request during idle cycles and stages it in the pool.
  With ``eager`` refill the node also starts the protocol instance
  immediately, so share exchange, verification, and combination all run
  ahead of demand and the real request folds into the finished instance
  via the idempotent instance id (PR-4 result cache / in-flight
  coalescing).
* **Consume** — the real request takes the staged entry (strict
  consume-once: the consumption is journaled durably *before* the entry
  is served, so a crash-and-restart can never double-use it) into its
  operation's own-share memo, and the first round's crypto is skipped.
  A duplicate of a request already known to the instance manager takes
  nothing.  Unannounced requests fall back to the on-demand path
  untouched.

KG20 keeps its nonce-commitment pools (filled by the explicit
preprocessing round); the service fronts them so depth telemetry is
uniform across schemes.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable

from ...errors import ConfigurationError
from ...storage.pool_journal import PoolJournal
from ...telemetry import MetricRegistry, PrecomputeMetrics
from ..protocols.frost import FrostPrecomputationPool

logger = logging.getLogger(__name__)

#: Refill yields to foreground instances; this is the re-check cadence
#: while the node is busy (idle-cycles-only refill, docs/performance.md).
_IDLE_POLL = 0.002

#: Hysteresis for the idle gate: refill only starts after the node has
#: been free of foreground instances this long.  Without it, the sub-ms
#: gap between two back-to-back requests — or the tail of a fan-out this
#: node finalized early — reads as "idle" and a refill job's synchronous
#: share creation lands in front of the next request, exactly the
#: starvation the idle gate exists to prevent.  Longer than a typical
#: request so a steady stream never interleaves with refill.
_IDLE_GRACE = 0.25

#: Eagerly pipelined instances in flight at once.  All nodes process the
#: same announce order, so the windows are prefixes of one sequence and
#: always overlap — the cap bounds background load without deadlocking.
_EAGER_WINDOW = 4


def derive_instance_id(
    kind: str, key_id: str, data: bytes, label: bytes = b""
) -> str:
    """Deterministic instance id shared by all nodes for the same request.

    Lives here (not in the service layer) because the precompute pool is
    keyed by it: an announced request and the real request must collide.
    """
    digest = hashlib.sha256(
        b"repro-instance" + kind.encode() + b"\x00" + key_id.encode() + b"\x00"
        + len(label).to_bytes(4, "big") + label + data
    ).hexdigest()
    return f"{kind}-{digest[:24]}"


@dataclass(frozen=True)
class PrecomputeConfig:
    """Behaviour of one node's precompute pipeline (``NodeConfig.precompute``)."""

    #: Maximum staged-but-unconsumed entries per (key, operation) pool;
    #: announces beyond it are deferred, never queued unboundedly.
    depth: int = 8
    #: Start the protocol instance as soon as this node's share is staged,
    #: so the whole threshold round (exchange + verify + combine) runs
    #: ahead of the request, not just share creation.
    eager: bool = True

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError(
                f"precompute depth must be >= 1, got {self.depth}"
            )

    def to_dict(self) -> dict:
        return {"depth": self.depth, "eager": self.eager}

    @staticmethod
    def from_dict(payload: dict) -> "PrecomputeConfig":
        unknown = sorted(set(payload) - {"depth", "eager"})
        if unknown:
            raise ConfigurationError(f"unknown precompute config keys {unknown}")
        return PrecomputeConfig(**payload)


@dataclass(frozen=True)
class PrecomputeJob:
    """One announced request, ready for refill.

    ``operation_factory`` defers building the ShareOperation (ciphertext
    parsing, point decompression) to the refill loop: announce handling
    runs on the foreground event loop and must stay cheap, while the
    factory call happens under the idle gate with the rest of the
    refill crypto.
    """

    instance_id: str
    key_id: str
    kind: str  # "decrypt" / "sign" / "coin" — the served operation
    data: bytes
    label: bytes
    operation_factory: Callable[[], object]  # () -> ShareOperation
    scheme: str


@dataclass
class _PoolEntry:
    seq: int  # journal consume sequence (0 when unjournaled)
    key_id: str
    kind: str
    payload: bytes


class PrecomputeService:
    """Per-node pools + refill loop + consume-once ledger.

    Always constructed (the KG20 nonce pools live here regardless);
    ``config=None`` disables the announce/refill pipeline and keeps the
    node on the pre-pipeline behaviour.
    """

    def __init__(
        self,
        config: PrecomputeConfig | None,
        registry: MetricRegistry,
        journal_dir: Path | str | None = None,
        active_probe: Callable[[], int] | None = None,
        known_probe: Callable[[str], bool] | None = None,
        submit: Callable[[str, str, bytes, bytes], Awaitable[bytes]] | None = None,
    ):
        self._config = config
        self._metrics = PrecomputeMetrics(registry)
        self._active_probe = active_probe
        #: Whether the instance manager already holds an instance id (live
        #: or terminated): a share staged for it would never be consumed.
        self._known_probe = known_probe
        self._submit = submit
        self._entries: dict[str, _PoolEntry] = {}
        self._counts: dict[tuple[str, str], int] = {}
        self._queued: dict[tuple[str, str], int] = {}
        self._pending_ids: set[str] = set()
        self._queue: deque[tuple[PrecomputeJob, asyncio.Future]] = deque()
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        # A fresh node refills immediately; the first foreground instance
        # arms the idle-grace window (see _pace).
        self._last_busy = float("-inf")
        self._eager_tasks: set[asyncio.Task] = set()
        self._eager_inflight = 0
        self._frost_pools: dict[str, FrostPrecomputationPool] = {}
        self._restored = 0
        self._journal: PoolJournal | None = None
        if journal_dir is not None and self.enabled:
            # Staged entries and their consumption persist in the PR-4 WAL
            # layer, so a restart restores unconsumed shares and can never
            # re-serve consumed ones.
            self._journal = PoolJournal(journal_dir)
            for survivor in self._journal.survivors:
                self._entries[survivor.instance_id] = _PoolEntry(
                    survivor.seq,
                    survivor.key_id,
                    survivor.op,
                    survivor.payload,
                )
                self._adjust_depth((survivor.key_id, survivor.op), 1)
                self._restored += 1

    @property
    def enabled(self) -> bool:
        return self._config is not None

    @property
    def config(self) -> PrecomputeConfig | None:
        return self._config

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.enabled and self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for task in list(self._eager_tasks):
            task.cancel()
        if self._eager_tasks:
            await asyncio.gather(*self._eager_tasks, return_exceptions=True)
        while self._queue:
            job, future = self._queue.popleft()
            self._pending_ids.discard(job.instance_id)
            if not future.done():
                future.set_result("cancelled")
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- announce / refill ---------------------------------------------------

    def announce(self, job: PrecomputeJob) -> "asyncio.Future[str]":
        """Queue one refill; the future resolves to the staging outcome
        (``staged`` / ``duplicate`` / ``deferred`` / ``failed: …``)."""
        future = asyncio.get_running_loop().create_future()
        if not self.enabled:
            future.set_result("disabled")
            return future
        if (
            job.instance_id in self._entries
            or job.instance_id in self._pending_ids
            or (self._known_probe is not None and self._known_probe(job.instance_id))
        ):
            future.set_result("duplicate")
            return future
        pool_key = (job.key_id, job.kind)
        depth = self._counts.get(pool_key, 0) + self._queued.get(pool_key, 0)
        if depth >= self._config.depth:
            self._count_refill(job.kind, "deferred")
            future.set_result("deferred")
            return future
        self._queued[pool_key] = self._queued.get(pool_key, 0) + 1
        self._pending_ids.add(job.instance_id)
        self._queue.append((job, future))
        self._wake.set()
        return future

    async def warm(self, jobs: list[PrecomputeJob]) -> dict:
        """Announce a batch and wait for its staging to settle."""
        outcomes = await asyncio.gather(*(self.announce(job) for job in jobs))
        tally: dict[str, int] = {}
        for outcome in outcomes:
            bucket = outcome.split(":", 1)[0]
            tally[bucket] = tally.get(bucket, 0) + 1
        tally["depth"] = {
            f"{key}/{kind}": count
            for (key, kind), count in sorted(self._counts.items())
            if count
        }
        return tally

    async def _run(self) -> None:
        while True:
            if not self._queue:
                self._wake.clear()
                await self._wake.wait()
                continue
            job, future = self._queue.popleft()
            pool_key = (job.key_id, job.kind)
            try:
                await self._pace()
                started = time.perf_counter()
                payload = job.operation_factory().own_share()
            except asyncio.CancelledError:
                self._release_queued(pool_key, job)
                if not future.done():
                    future.set_result("cancelled")
                raise
            except Exception as exc:  # noqa: BLE001 - one bad job must not kill refill
                self._release_queued(pool_key, job)
                self._count_refill(job.kind, "error")
                logger.warning(
                    "precompute refill failed for %s: %s", job.instance_id, exc
                )
                if not future.done():
                    future.set_result(f"failed: {exc}")
                continue
            self._release_queued(pool_key, job)
            seq = 0
            if self._journal is not None:
                seq = self._journal.stage(
                    job.instance_id, job.key_id, job.kind, payload
                )
            self._entries[job.instance_id] = _PoolEntry(
                seq, job.key_id, job.kind, payload
            )
            self._adjust_depth(pool_key, 1)
            self._metrics.refill_seconds.labels(job.kind).observe(
                time.perf_counter() - started
            )
            self._count_refill(job.kind, "ok")
            if not future.done():
                future.set_result("staged")
            if self._config.eager and self._submit is not None:
                self._start_eager(job)
            # One explicit yield between jobs: a request arriving mid-batch
            # must reach its executor before the next refill runs.
            await asyncio.sleep(0)

    def _release_queued(self, pool_key: tuple[str, str], job: PrecomputeJob) -> None:
        self._queued[pool_key] = max(0, self._queued.get(pool_key, 0) - 1)
        self._pending_ids.discard(job.instance_id)

    async def _pace(self) -> None:
        """Idle-cycles gate: foreground instances and the eager window win.

        The eager pipeline's own instances are discounted from the busy
        probe (they *are* the refill).  Foreground activity arms a grace
        window: refill resumes only after :data:`_IDLE_GRACE` seconds
        without foreground instances, so a stream of back-to-back
        requests is never interleaved with refill crypto.
        """
        loop = asyncio.get_running_loop()
        while True:
            if self._active_probe is not None:
                now = loop.time()
                if self._active_probe() - self._eager_inflight > 0:
                    self._last_busy = now
                    await asyncio.sleep(_IDLE_POLL)
                    continue
                if now - self._last_busy < _IDLE_GRACE:
                    await asyncio.sleep(_IDLE_POLL)
                    continue
            if self._eager_inflight < _EAGER_WINDOW:
                return
            await asyncio.sleep(_IDLE_POLL)

    def _start_eager(self, job: PrecomputeJob) -> None:
        try:
            awaitable = self._submit(job.kind, job.key_id, job.data, job.label)
        except Exception:  # noqa: BLE001 - overload/shedding must not kill refill
            logger.warning(
                "eager start failed for %s", job.instance_id, exc_info=True
            )
            return
        self._eager_inflight += 1
        task = asyncio.get_running_loop().create_task(
            self._watch_eager(job.instance_id, awaitable)
        )
        self._eager_tasks.add(task)
        task.add_done_callback(self._eager_tasks.discard)

    async def _watch_eager(self, instance_id: str, awaitable) -> None:
        try:
            await awaitable
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - the real request sees the abort
            logger.warning("pipelined instance %s failed: %s", instance_id, exc)
        finally:
            self._eager_inflight -= 1

    # -- consume -------------------------------------------------------------

    def take(self, instance_id: str) -> bytes | None:
        """Pop the staged share for this instance id — exactly once, ever.

        The consumption record is appended (and fsynced) to the pool
        journal *before* the payload is returned: a SIGKILL anywhere after
        this call replays as consumed, never as available again.
        """
        entry = self._entries.pop(instance_id, None)
        if entry is None:
            return None
        if self._journal is not None and entry.seq:
            self._journal.consume(entry.seq)
        self._adjust_depth((entry.key_id, entry.kind), -1)
        return entry.payload

    def record_served(self, op: str, source: str) -> None:
        self._metrics.served.labels(op, source).inc()

    # -- KG20 nonce pools ----------------------------------------------------

    def frost_pool(self, key_id: str) -> FrostPrecomputationPool:
        return self._frost_pools.setdefault(key_id, FrostPrecomputationPool())

    def note_frost_depth(self, key_id: str) -> None:
        """Refresh the depth gauge after a preprocessing round filled the
        pool or a signing instance popped a set from it.

        Nonce material is volatile by construction (it never rests on
        disk), so a restart empties the pool — consume-once across
        process lives holds trivially.
        """
        pool = self._frost_pools.get(key_id)
        if pool is not None:
            self._metrics.depth.labels(key_id, "kg20-nonce").set(pool.available)

    # -- bookkeeping ---------------------------------------------------------

    def _adjust_depth(self, pool_key: tuple[str, str], delta: int) -> None:
        count = self._counts.get(pool_key, 0) + delta
        self._counts[pool_key] = max(0, count)
        self._metrics.depth.labels(*pool_key).set(self._counts[pool_key])

    def _count_refill(self, op: str, outcome: str) -> None:
        self._metrics.refills.labels(op, outcome).inc()

    def staged_count(self, key_id: str, kind: str) -> int:
        return self._counts.get((key_id, kind), 0)

    def stats(self) -> dict:
        """``stats()["precompute"]`` section (docs/observability.md)."""
        report = {
            "enabled": self.enabled,
            "staged": {
                f"{key}/{kind}": count
                for (key, kind), count in sorted(self._counts.items())
                if count
            },
            "queued": len(self._queue),
            "restored": self._restored,
            "served": self._metrics.served.totals_by("op", "source"),
            "refills": self._metrics.refills.totals_by("op", "outcome"),
            "frost": {
                key_id: pool.available
                for key_id, pool in sorted(self._frost_pools.items())
                if pool.available
            },
        }
        if self.enabled:
            report["depth_limit"] = self._config.depth
            report["eager"] = self._config.eager
            report["pipelined_active"] = self._eager_inflight
        return report
