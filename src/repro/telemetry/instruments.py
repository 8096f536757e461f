"""Pre-bound instrument bundles for the three layers of the stack.

Naming follows the Prometheus conventions (``repro_`` namespace, ``_total``
for counters, base-unit ``_seconds``/``_bytes`` suffixes).  Two scopes:

* **Process scope** (the default registry): network transports — which may
  be constructed outside any node, e.g. a :class:`LocalHub` endpoint — and
  the process-wide crypto caches.  These carry a ``node`` label so several
  in-process nodes stay distinguishable.
* **Node scope** (a per-node registry): RPC and core/TRI metrics, created
  unlabeled-by-node because the registry itself is the node boundary — a
  Prometheus server scraping each node separately sees exactly its own
  numbers, as in the paper's per-node co-located setup.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import contextmanager

from .registry import MetricRegistry, default_registry

# Buckets for network send operations: these are queue/syscall latencies,
# far below protocol latencies, so the ladder starts at 10 µs.
NETWORK_SEND_BUCKETS: tuple[float, ...] = tuple(1e-05 * (2**i) for i in range(16))

# Buckets for event-loop scheduling lag: a healthy loop sits under 1 ms,
# an inline pairing product pushes it into the 100 ms+ decades.
LOOP_LAG_BUCKETS: tuple[float, ...] = tuple(1e-04 * (2**i) for i in range(16))


class ChannelMetrics:
    """Messages/bytes sent+received and send latency for one transport.

    Instantiated by every transport (`tcp`, `local`, `tob`) against the
    process-global registry.
    """

    def __init__(
        self, node_id: int, channel: str, registry: MetricRegistry | None = None
    ):
        registry = registry if registry is not None else default_registry()
        labels = ("node", "channel", "direction")
        self._messages = registry.counter(
            "repro_network_messages_total",
            "Protocol frames sent/received per transport channel.",
            labels,
        )
        self._bytes = registry.counter(
            "repro_network_bytes_total",
            "Payload bytes sent/received per transport channel.",
            labels,
        )
        self._send_seconds = registry.histogram(
            "repro_network_send_seconds",
            "Latency of one send operation per transport channel.",
            ("node", "channel"),
            buckets=NETWORK_SEND_BUCKETS,
        )
        node = str(node_id)
        self._sent_messages = self._messages.labels(node, channel, "sent")
        self._sent_bytes = self._bytes.labels(node, channel, "sent")
        self._recv_messages = self._messages.labels(node, channel, "received")
        self._recv_bytes = self._bytes.labels(node, channel, "received")
        self._send_latency = self._send_seconds.labels(node, channel)

    def sent(self, nbytes: int, messages: int = 1) -> None:
        self._sent_messages.inc(messages)
        self._sent_bytes.inc(nbytes)

    def received(self, nbytes: int, messages: int = 1) -> None:
        self._recv_messages.inc(messages)
        self._recv_bytes.inc(nbytes)

    @contextmanager
    def time_send(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self._send_latency.observe(time.perf_counter() - started)


class RpcMetrics:
    """Service-layer instruments (held by :class:`RpcServer`)."""

    def __init__(self, registry: MetricRegistry):
        self.requests = registry.counter(
            "repro_rpc_requests_total",
            "RPC requests by method and outcome (ok/error/internal).",
            ("method", "outcome"),
        )
        self.latency = registry.histogram(
            "repro_rpc_latency_seconds",
            "Server-side RPC handling latency by method.",
            ("method",),
        )
        self.inflight = registry.gauge(
            "repro_rpc_inflight",
            "RPC requests currently being handled.",
        )
        self.connections = registry.counter(
            "repro_rpc_connections_total",
            "RPC client connections accepted.",
        )


class CoreMetrics:
    """Core-layer instruments (held by :class:`InstanceManager` and shared
    with every :class:`ProtocolExecutor` it launches)."""

    def __init__(self, registry: MetricRegistry):
        self.round_seconds = registry.histogram(
            "repro_tri_round_seconds",
            "Duration of one TRI round (local compute + waiting for the "
            "quorum of shares), by scheme and round index.",
            ("scheme", "round"),
        )
        self.messages = registry.counter(
            "repro_tri_messages_total",
            "Protocol messages delivered to executors: accepted shares vs "
            "rejected (invalid proof/share) ones.",
            ("scheme", "outcome"),
        )
        self.instances = registry.counter(
            "repro_instances_total",
            "Protocol instances terminated, by scheme and final status.",
            ("scheme", "status"),
        )
        self.instance_seconds = registry.histogram(
            "repro_instance_seconds",
            "Server-side instance latency (creation to finalization), by "
            "scheme; backs the stats() latency summary.",
            ("scheme",),
        )
        self.inflight = registry.gauge(
            "repro_instances_inflight",
            "Protocol instances currently created or running.",
        )
        self.backlog_buffered = registry.counter(
            "repro_backlog_buffered_total",
            "Early protocol messages buffered before instance creation.",
        )
        self.backlog_dropped = registry.counter(
            "repro_backlog_dropped_total",
            "Early protocol messages dropped on backlog overflow.",
        )
        self.aborts = registry.counter(
            "repro_instance_aborts_total",
            "Failed protocol instances by scheme and structured abort "
            "reason (timeout / insufficient_shares / byzantine_detected / "
            "aborted / internal).",
            ("scheme", "reason"),
        )
        self.rebroadcasts = registry.counter(
            "repro_round_rebroadcasts_total",
            "Watchdog re-broadcasts of this node's current-round messages "
            "for instances that stalled short of the timeout.",
            ("scheme",),
        )
        self.rejected = registry.counter(
            "repro_instance_rejected_total",
            "Submissions rejected before an executor was created, by "
            "structured reason (overloaded = pending-instance backlog full).",
            ("reason",),
        )
        self.coalesced_requests = registry.counter(
            "repro_requests_coalesced_total",
            "Duplicate-payload requests served without creating a new "
            "instance: joined one already in flight (inflight) or answered "
            "from the idempotent result cache (result_cache).",
            ("source",),
        )


class StorageMetrics:
    """Durability/recovery instruments (held by :class:`ThetacryptNode`
    when ``NodeConfig.data_dir`` is set; see docs/robustness.md)."""

    def __init__(self, registry: MetricRegistry):
        self.recoveries = registry.counter(
            "repro_recovery_runs_total",
            "Recovery passes executed at node start (one per boot of a "
            "node with a data_dir).",
        )
        self.recovered_keys = registry.gauge(
            "repro_recovery_keys",
            "Key shares reloaded from the durable keystore during the most "
            "recent recovery pass.",
        )
        self.recovered_instances = registry.counter(
            "repro_recovery_instances_total",
            "Instances restored during recovery, by outcome: finalized "
            "(served from the durable result cache) or aborted (in-flight "
            "at crash time, marked crash_recovery).",
            ("outcome",),
        )


class PrecomputeMetrics:
    """KG20 nonce-pool instruments (held by
    :class:`repro.service.node.ThetacryptNode`)."""

    def __init__(self, registry: MetricRegistry):
        self.depth = registry.gauge(
            "repro_precompute_pool_depth",
            "KG20 nonce sets available per key (op=\"kg20-nonce\").",
            ("key", "op"),
        )


class EventLoopLagSampler:
    """Heartbeat measuring asyncio scheduling delay.

    Sleeps ``interval`` seconds in a loop and records how much *later*
    than requested each wake-up lands in the
    ``repro_event_loop_lag_seconds`` histogram.  That lag is exactly the
    time the loop spent blocked in the crypto the executors run on it.
    """

    def __init__(self, registry: MetricRegistry, interval: float = 0.05):
        self._interval = interval
        self.histogram = registry.histogram(
            "repro_event_loop_lag_seconds",
            "Scheduling delay of a periodic heartbeat: how long past its "
            "deadline the event loop got around to running it.",
            buckets=LOOP_LAG_BUCKETS,
        )
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            deadline = loop.time() + self._interval
            await asyncio.sleep(self._interval)
            self.histogram.observe(max(0.0, loop.time() - deadline))


def register_crypto_cache_collector(
    registry: MetricRegistry | None = None,
) -> None:
    """Expose the process-wide crypto-cache counters as registry gauges.

    Pull-style: the gauges are refreshed from the caches at collect time,
    so the caches themselves stay instrumentation-free. Idempotent per
    registry (keyed on the family's presence).
    """
    registry = registry if registry is not None else default_registry()
    if registry.get("repro_crypto_cache") is not None:
        return
    family = registry.gauge(
        "repro_crypto_cache",
        "Crypto-cache counters (fixed-base tables, Lagrange "
        "coefficients, hash points) read from the live caches at scrape time.",
        ("cache", "stat"),
    )
    # The same count as repro_crypto_cache{cache="fixed_base",
    # stat="tables_built"}, under the name thetabench reads.
    built = registry.gauge(
        "repro_fixedbase_tables_built_total",
        "Fixed-base tables built from scratch in this process.",
    )

    def collect() -> None:
        from ..groups.precompute import precompute_stats
        from ..mathutils.lagrange import lagrange_cache_stats
        from ..schemes import bls04, cks05

        fixed_base = precompute_stats()
        built.set(fixed_base["tables_built"])
        for cache_name, stats in (
            ("fixed_base", fixed_base),
            ("lagrange", lagrange_cache_stats()),
            ("cks05_name_hash", cks05.hash_memo_stats()),
            ("bls04_message_hash", bls04.hash_memo_stats()),
        ):
            for stat, value in stats.items():
                family.labels(cache_name, stat).set(value)

    registry.register_collector(collect)
