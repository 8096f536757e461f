"""The precompute pipeline: announced requests run ahead of demand.

The paper serves every threshold operation strictly on-demand, so each
request pays share creation, share verification, and combination in line
with the caller.  "The Latency Price of Threshold Cryptosystems in
Blockchains" (PAPERS.md) identifies preprocessing as the lever that
removes that price; FROST's nonce pool (``core.protocols.frost``) is the
design's own sketch of it.  For every other scheme the lever is the
request itself, started early:

* **Announce** — a client names upcoming requests (the ciphertexts an
  ordering layer has accepted, the messages awaiting signature slots).
  Each node queues them, at most ``depth`` queued or running per
  (key, operation).
* **Run ahead** — during idle cycles a background loop submits each
  announced request through the node's own request path, so the real
  request's protocol instance — share creation, exchange, verification
  and combination — runs before anyone asks for it.
* **Serve** — the real request derives the same deterministic instance id
  and folds into that instance (in-flight coalescing or the outcome
  table).  A request that overtakes its announce runs on demand, and the
  announce then folds into it: nothing is computed twice and nothing is
  left behind.  Unannounced requests take the on-demand path untouched.

KG20 keeps its nonce-commitment pools (filled by the explicit
preprocessing round); the service fronts them so depth telemetry is
uniform across schemes.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Awaitable, Callable

from ...errors import ConfigurationError
from ...serialization import config_fields
from ...telemetry import MetricRegistry, PrecomputeMetrics
from ..protocols.frost import FrostPrecomputationPool

logger = logging.getLogger(__name__)

#: The run-ahead loop yields to foreground instances; this is the re-check
#: cadence while the node is busy (idle-cycles-only, docs/performance.md).
_IDLE_POLL = 0.002

#: Hysteresis for the idle gate: an announced request only starts after
#: the node has been free of foreground instances this long.  Without it,
#: the sub-ms gap between two back-to-back requests — or the tail of a
#: fan-out this node finalized early — reads as "idle" and an announced
#: instance's synchronous share creation lands in front of the next
#: request, exactly the starvation the idle gate exists to prevent.
#: Longer than a typical request so a steady stream never interleaves
#: with announced work.
_IDLE_GRACE = 0.25

#: Announced instances running at once.  All nodes process the same
#: announce order, so the windows are prefixes of one sequence and always
#: overlap — the cap bounds background load without deadlocking.
_EAGER_WINDOW = 4


def derive_instance_id(
    kind: str, key_id: str, data: bytes, label: bytes = b""
) -> str:
    """Deterministic instance id shared by all nodes for the same request.

    Lives here (not in the service layer) because the pipeline is keyed by
    it: an announced request and the real request must collide.
    """
    digest = hashlib.sha256(
        b"repro-instance" + kind.encode() + b"\x00" + key_id.encode() + b"\x00"
        + len(label).to_bytes(4, "big") + label + data
    ).hexdigest()
    return f"{kind}-{digest[:24]}"


@dataclass(frozen=True)
class PrecomputeConfig:
    """Behaviour of one node's precompute pipeline (``NodeConfig.precompute``)."""

    #: Maximum announced requests queued or running per (key, operation);
    #: announces beyond it are deferred, never queued unboundedly.
    depth: int = 8

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError(
                f"precompute depth must be >= 1, got {self.depth}"
            )

    def to_dict(self) -> dict:
        return {"depth": self.depth}

    @staticmethod
    def from_dict(payload: dict) -> "PrecomputeConfig":
        if isinstance(payload, dict) and "eager" in payload:
            # Written while the pipeline could stop at staging one share:
            # true is what every announce does now, false is gone.
            if payload["eager"] is not True:
                raise ConfigurationError(
                    "precompute key 'eager' must be true: an announce always "
                    f"runs its request ahead of demand, got {payload['eager']!r}"
                )
            payload = {k: v for k, v in payload.items() if k != "eager"}
        return PrecomputeConfig(**config_fields(PrecomputeConfig, payload))


@dataclass(frozen=True)
class PrecomputeJob:
    """One announced request, in the shape ``submit_request`` takes it."""

    instance_id: str
    key_id: str
    kind: str  # "decrypt" / "sign" / "coin" — the served operation
    data: bytes
    label: bytes


class PrecomputeService:
    """Per-node announce queue + run-ahead loop + KG20 nonce pools.

    Always constructed (the KG20 nonce pools live here regardless);
    ``config=None`` disables the announce pipeline and keeps the node
    strictly on-demand.  ``submit`` starts one request's instance and
    returns its result awaitable; ``known_probe`` says whether the
    instance manager already holds an instance id; ``active_probe``
    counts live instances for the idle gate (None: no gate).
    """

    def __init__(
        self,
        config: PrecomputeConfig | None,
        registry: MetricRegistry,
        known_probe: Callable[[str], bool],
        submit: Callable[[str, str, bytes, bytes], Awaitable[bytes]],
        active_probe: Callable[[], int] | None = None,
    ):
        self._config = config
        self._metrics = PrecomputeMetrics(registry)
        self._known_probe = known_probe
        self._submit = submit
        self._active_probe = active_probe
        #: Announced requests queued or running, per (key, operation).
        self._depth: dict[tuple[str, str], int] = {}
        self._pending_ids: set[str] = set()
        self._queue: deque[tuple[PrecomputeJob, asyncio.Future]] = deque()
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        # A fresh node runs announced work immediately; the first
        # foreground instance arms the idle-grace window (see _pace).
        self._last_busy = float("-inf")
        self._running: set[asyncio.Task] = set()
        self._frost_pools: dict[str, FrostPrecomputationPool] = {}

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
        for task in list(self._running):
            task.cancel()
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)
        while self._queue:
            self._settle(*self._queue.popleft(), "cancelled")

    # -- announce / run ahead ------------------------------------------------

    def announce(self, job: PrecomputeJob) -> "asyncio.Future[str]":
        """Queue one announced request; the future resolves to its outcome
        (``staged`` once its instance ran ahead and finished, ``duplicate``,
        ``deferred``, ``failed: …``)."""
        future = asyncio.get_running_loop().create_future()
        if not self.enabled:
            future.set_result("disabled")
            return future
        if job.instance_id in self._pending_ids or self._known_probe(job.instance_id):
            future.set_result("duplicate")
            return future
        pool_key = (job.key_id, job.kind)
        if self._depth.get(pool_key, 0) >= self._config.depth:
            self._count_refill(job.kind, "deferred")
            future.set_result("deferred")
            return future
        self._adjust_depth(pool_key, 1)
        self._pending_ids.add(job.instance_id)
        self._queue.append((job, future))
        self._wake.set()
        return future

    async def warm(self, jobs: list[PrecomputeJob]) -> dict:
        """Announce a batch and wait for every item's outcome."""
        outcomes = await asyncio.gather(*(self.announce(job) for job in jobs))
        tally: dict[str, int] = {}
        for outcome in outcomes:
            bucket = outcome.split(":", 1)[0]
            tally[bucket] = tally.get(bucket, 0) + 1
        tally["depth"] = self._depth_report()
        return tally

    async def _run(self) -> None:
        while True:
            if not self._queue:
                self._wake.clear()
                await self._wake.wait()
                continue
            job, future = self._queue.popleft()
            try:
                await self._pace()
            except asyncio.CancelledError:
                self._settle(job, future, "cancelled")
                raise
            if self._known_probe(job.instance_id):
                # The request overtook its announce: its own instance is
                # running or answered, and that is the one it is served by.
                self._settle(job, future, "duplicate")
                continue
            try:
                result = self._submit(job.kind, job.key_id, job.data, job.label)
            except Exception as exc:  # noqa: BLE001 - overload/shedding must not kill the loop
                self._count_refill(job.kind, "error")
                self._settle(job, future, f"failed: {exc}")
                continue
            task = asyncio.get_running_loop().create_task(
                self._watch(job, future, result)
            )
            self._running.add(task)
            task.add_done_callback(partial(self._reap, job, future))
            # One explicit yield between jobs: a request arriving mid-batch
            # must reach its executor before the next announced one starts.
            await asyncio.sleep(0)

    async def _pace(self) -> None:
        """Idle-cycles gate: foreground instances and the window win.

        The pipeline's own instances are discounted from the busy probe
        (they *are* the announced work).  Foreground activity arms a grace
        window: announced work resumes only after :data:`_IDLE_GRACE`
        seconds without foreground instances, so a stream of back-to-back
        requests is never interleaved with it.
        """
        loop = asyncio.get_running_loop()
        while True:
            if self._active_probe is not None:
                now = loop.time()
                if self._active_probe() - len(self._running) > 0:
                    self._last_busy = now
                    await asyncio.sleep(_IDLE_POLL)
                    continue
                if now - self._last_busy < _IDLE_GRACE:
                    await asyncio.sleep(_IDLE_POLL)
                    continue
            if len(self._running) < _EAGER_WINDOW:
                return
            await asyncio.sleep(_IDLE_POLL)

    async def _watch(self, job: PrecomputeJob, future, result) -> None:
        try:
            await result
        except Exception as exc:  # noqa: BLE001 - the real request sees the abort
            logger.warning("announced instance %s failed: %s", job.instance_id, exc)
            self._count_refill(job.kind, "error")
            self._settle(job, future, f"failed: {exc}")
        else:
            self._count_refill(job.kind, "ok")
            self._settle(job, future, "staged")

    def _reap(self, job: PrecomputeJob, future, task: asyncio.Task) -> None:
        # A watcher cancelled by stop() still settles its announce.
        self._running.discard(task)
        self._settle(job, future, "cancelled")

    def _settle(self, job: PrecomputeJob, future, outcome: str) -> None:
        """Release one announce's slot and resolve it; the first outcome
        wins, and a future its waiter cancelled still frees the slot."""
        if job.instance_id not in self._pending_ids:
            return
        self._pending_ids.discard(job.instance_id)
        self._adjust_depth((job.key_id, job.kind), -1)
        if not future.done():
            future.set_result(outcome)

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
        self._depth[pool_key] = self._depth.get(pool_key, 0) + delta
        self._metrics.depth.labels(*pool_key).set(self._depth[pool_key])

    def _depth_report(self) -> dict[str, int]:
        return {
            f"{key}/{kind}": count
            for (key, kind), count in sorted(self._depth.items())
            if count
        }

    def _count_refill(self, op: str, outcome: str) -> None:
        self._metrics.refills.labels(op, outcome).inc()

    def stats(self) -> dict:
        """``stats()["precompute"]`` section (docs/observability.md)."""
        report = {
            "enabled": self.enabled,
            "depth": self._depth_report(),
            "queued": len(self._queue),
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
            report["pipelined_active"] = len(self._running)
        return report
