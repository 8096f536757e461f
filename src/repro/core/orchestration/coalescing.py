"""Cross-request crypto batching: many instances, one pool round trip.

A pool task costs pickle + IPC + executor scheduling regardless of how
much crypto it carries, and on small hosts that fixed cost is exactly the
throughput regression ``BENCH_offload.json`` measured.  "The Latency
Price of Threshold Cryptosystems in Blockchains" (PAPERS.md) makes the
same observation at system scale: threshold work only stays cheap when it
is batched and pipelined across requests.

:class:`CryptoCoalescer` sits between the executors and the
:class:`~repro.workers.pool.CryptoPool`.  When several concurrent
instances each want a ``create_share`` (or a ``verify_shares``) within a
short window, the coalescer holds the first for ``window`` seconds,
merges everything that arrives meanwhile into one
``create_share_batch`` / ``verify_shares_multi`` worker task, and fans
the per-item results back out to the waiting executors.  A lone request
whose window expires alone is submitted as the plain single task — the
window is the only latency the layer can add, and only under no load.

Failure semantics preserve the pool's degradation contract: an
infrastructure failure (:class:`CryptoPoolUnavailable`) propagates to
*every* waiter, each of which falls back inline exactly as it would for
its own single task; a per-item cryptographic failure inside a batch
surfaces as a :class:`~repro.errors.CryptoError` only on that item's
future — one bad request cannot poison its batchmates.

Identical-payload request coalescing is upstream of this layer: the
instance manager's idempotent ``start_instance`` (PR 4) already folds
requests with the same derived instance id into one instance; it now
counts those folds as ``repro_requests_coalesced_total``.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Callable

from ...errors import CryptoError
from ...telemetry import CoreMetrics
from ...workers import tasks
from ...workers.pool import CryptoPool

logger = logging.getLogger(__name__)

#: Default coalescing window, seconds.  Long enough to catch genuinely
#: concurrent requests (same loop iteration, same gossip burst), short
#: enough to be invisible next to a pairing product.
DEFAULT_WINDOW = 0.002

#: Cap on items per flushed batch; a full bucket flushes immediately.
DEFAULT_MAX_BATCH = 16


@dataclass(frozen=True)
class _Route:
    """How one coalescable single-task function batches."""

    single_fn: Callable  # the worker task one item alone runs as
    key: str  # bucket key and batch op label
    batch_fn: Callable  # worker-side batch task
    pack: Callable  # one item's args tuple -> its entry in the batch payload
    deliver: Callable  # (future, per-item result) -> resolve the future


@dataclass
class _Bucket:
    """One open window's worth of pending items."""

    ops: list[str] = field(default_factory=list)
    items: list[tuple] = field(default_factory=list)
    futures: list[asyncio.Future] = field(default_factory=list)
    timer: asyncio.Task | None = None


def _deliver_created(future: asyncio.Future, result) -> None:
    """create_share_batch items come back tagged ("ok"|"error", value)."""
    tag, value = result
    if tag == "ok":
        future.set_result(value)
    else:
        future.set_exception(CryptoError(str(value)))


#: Keyed by the *worker task function*: the scheduler names the two
#: operations it serves, and only these have a batch form.
_ROUTES = {
    route.single_fn: route
    for route in (
        _Route(
            tasks.create_share,
            "create_share_batch",
            tasks.create_share_batch,
            pack=lambda args: args[0],  # the spec
            deliver=_deliver_created,
        ),
        _Route(
            tasks.verify_shares,
            "verify_shares_multi",
            tasks.verify_shares_multi,
            pack=lambda args: args,  # (spec, payloads)
            # Items are the verdict lists themselves.
            deliver=lambda future, verdicts: future.set_result(verdicts),
        ),
    )
}


class CryptoCoalescer:
    """Batches concurrent executors' pool tasks across instances."""

    def __init__(
        self,
        pool: CryptoPool,
        window: float = DEFAULT_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        metrics: CoreMetrics | None = None,
    ):
        self._pool = pool
        self._window = max(0.0, float(window))
        self._max_batch = max(2, int(max_batch))
        self._metrics = metrics
        self._buckets: dict[str, _Bucket] = {}
        self._batches = 0
        self._batched_items = 0
        self._singles = 0

    def stats(self) -> dict:
        return {
            "window": self._window,
            "max_batch": self._max_batch,
            "batches": self._batches,
            "batched_items": self._batched_items,
            "singles": self._singles,
        }

    async def run(self, op: str, fn, args: tuple):
        """Pool execution with cross-request batching where possible.

        Drop-in for ``pool.run(op, fn, *args)``: same results, same
        exceptions (``CryptoPoolUnavailable`` for infrastructure,
        ``ThetacryptError`` for crypto), so executors degrade inline
        identically on both paths.
        """
        route = _ROUTES.get(fn)
        if route is None or self._window <= 0.0:
            return await self._pool.run(op, fn, *args)
        bucket = self._buckets.get(route.key)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[route.key] = bucket
            bucket.timer = asyncio.get_running_loop().create_task(
                self._flush_after(route, bucket)
            )
        bucket.ops.append(op)
        bucket.items.append(args)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        bucket.futures.append(future)
        if len(bucket.items) >= self._max_batch:
            self._detach(route, bucket)
            await self._flush(route, bucket)
        return await future

    def _detach(self, route: _Route, bucket: _Bucket) -> None:
        """Close the bucket's window: no further items may join it."""
        if self._buckets.get(route.key) is bucket:
            del self._buckets[route.key]
        if bucket.timer is not None and not bucket.timer.done():
            bucket.timer.cancel()

    async def _flush_after(self, route: _Route, bucket: _Bucket) -> None:
        try:
            await asyncio.sleep(self._window)
        except asyncio.CancelledError:
            return  # a full bucket flushed early
        if self._buckets.get(route.key) is not bucket:
            return
        del self._buckets[route.key]
        await self._flush(route, bucket)

    async def _flush(self, route: _Route, bucket: _Bucket) -> None:
        if not bucket.items:
            return
        if len(bucket.items) == 1:
            # A window that closed with one item: no batch to amortize,
            # run the single task under its own op label.
            self._singles += 1
            await self._settle(
                bucket.futures[0],
                self._pool.run(bucket.ops[0], route.single_fn, *bucket.items[0]),
            )
            return
        self._batches += 1
        self._batched_items += len(bucket.items)
        if self._metrics is not None:
            self._metrics.crypto_batches.labels(route.key).inc()
            self._metrics.crypto_batched_items.labels(route.key).inc(
                len(bucket.items)
            )
        try:
            results = await self._pool.run(
                route.key, route.batch_fn, [route.pack(i) for i in bucket.items]
            )
        except BaseException as exc:  # noqa: BLE001 - fan the failure out
            for future in bucket.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        if not isinstance(results, list) or len(results) != len(bucket.futures):
            exc = CryptoError(
                f"batched {route.key} returned {len(results) if isinstance(results, list) else type(results).__name__} "
                f"results for {len(bucket.futures)} items"
            )
            for future in bucket.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(bucket.futures, results):
            if future.done():
                continue  # waiter went away (cancelled executor)
            try:
                route.deliver(future, result)
            except Exception as exc:  # noqa: BLE001 - malformed item result
                if not future.done():
                    future.set_exception(CryptoError(str(exc)))

    @staticmethod
    async def _settle(future: asyncio.Future, coro) -> None:
        try:
            result = await coro
        except BaseException as exc:  # noqa: BLE001 - includes pool fallback
            if not future.done():
                future.set_exception(exc)
        else:
            if not future.done():
                future.set_result(result)
