"""The end-to-end run: real daemons, one client, a closed loop.

Load model: ``CLIENTS`` logical clients in this one asyncio process share
one ``ThetacryptClient`` (n persistent connections, every request fanned
out to all nodes, first assembled result wins).  Each client sends its
next request only when the previous one has been answered, because a
caller of a threshold service needs the signature, plaintext or coin
before it can go on.
"""

from __future__ import annotations

import asyncio
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from cluster import Cluster, deal
from workloads import (
    REPLAY_SET,
    Request,
    Workload,
    count_wrong,
    fresh_requests,
    replay_requests,
    send,
)

from repro.errors import ThetacryptError
from repro.telemetry import parse_text

CLIENTS = 2
WARMUPS = 3
QUIESCE_DEADLINE = 60.0
PINGS = 200


@dataclass
class DaemonRun:
    """Everything one daemon run observed; metrics are derived from it."""

    window_s: float
    setup_s: list[float]
    attempted: int = 0
    failed: int = 0
    in_window: float = 0.0  # answered requests, by the share inside the window
    latencies_ms: list[float] = field(default_factory=list)
    cpu_s: float = 0.0  # daemon CPU from window start until every node idle
    rss_kb_warm: int = 0
    rss_kb_end: int = 0
    disk_kb: float = 0.0
    recovery_s: float = 0.0
    ping_ms: float = 0.0
    scrape: dict = field(default_factory=dict)  # (family, labels) -> delta
    backend: str = ""
    daemon_cpus: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


async def _closed_loop(client, workload, requests, count=None, until=None):
    """Drive ``CLIENTS`` closed loops until ``count`` requests were sent or
    the clock passes ``until``; returns (request, reply or None, start, end)."""
    done: list[tuple[Request, bytes | None, float, float]] = []
    sent = 0

    async def one_client() -> None:
        nonlocal sent
        while (count is None or sent < count) and (
            until is None or time.perf_counter() < until
        ):
            sent += 1
            request = next(requests)
            started = time.perf_counter()
            try:
                reply = await send(client, workload, request[0])
            except (ThetacryptError, OSError):
                reply = None  # refused or failed: counted, never retried
            done.append((request, reply, started, time.perf_counter()))

    await asyncio.gather(*(one_client() for _ in range(CLIENTS)))
    return done


async def _quiesce(cluster: Cluster) -> None:
    """Wait until no node has an instance in flight.

    The client returns on the first assembled result, so the slower nodes
    finish their part of the last requests after the window; their CPU
    belongs to those requests and is counted before the clock stops.
    """
    deadline = time.monotonic() + QUIESCE_DEADLINE
    for node_id in cluster.addresses:
        while (await cluster.client.node_stats(node_id))["active"]:
            if time.monotonic() > deadline:
                raise RuntimeError(f"node {node_id} never went idle")
            await asyncio.sleep(0.05)


async def _scrape(cluster: Cluster) -> dict:
    """The four daemons' ``metrics`` scrapes, summed per (family, labels)."""
    total: dict = {}
    for node_id in cluster.addresses:
        for (name, labels), value in parse_text(
            await cluster.client.metrics(node_id)
        ).items():
            # Every process numbers its transports by node id; drop that
            # label so the cluster sums into one series.
            key = (name, tuple(item for item in labels if item[0] != "node"))
            total[key] = total.get(key, 0.0) + value
    return total


async def _prefill_and_restart(cluster, workload, material, seed, scale):
    """replay_cached set-up: flip the coin set, then restart from disk."""
    source = fresh_requests(workload, material, seed)
    size = max(4, round(REPLAY_SET * scale))
    done = await _closed_loop(cluster.client, workload, source, count=size)
    prefilled = [(request[0], reply) for request, reply, _, _ in done]
    if any(reply is None for _, reply in prefilled):
        raise RuntimeError("prefill request failed")
    await _quiesce(cluster)  # every node has journalled every result
    recovery_s = await cluster.restart()
    for node_id in cluster.addresses:
        stats = await cluster.client.node_stats(node_id)
        recovered = stats["recovery"]
        if stats["keys"] != 1 or recovered.get("results") != size:
            raise RuntimeError(f"node {node_id} recovered {recovered}")
    return prefilled, recovery_s


async def daemon_run(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    setups: int,
    scale: float,
    layers: bool,
) -> DaemonRun:
    """Boot ``setups`` clusters (timing each set-up), then measure one
    ``seconds`` window on the last.  ``layers`` adds the scrape deltas and
    isolated timings the per-layer report needs."""
    material = deal((workload.scheme,))
    run = DaemonRun(window_s=seconds, setup_s=[])
    warmup_source = fresh_requests(workload, material, seed + 1_000_003)
    cluster = None
    try:
        for boot in range(setups):
            cluster = Cluster(workdir / f"boot{boot}", material, workload.durable)
            spawned_at = await cluster.start()
            if workload.replay:
                prefilled, run.recovery_s = await _prefill_and_restart(
                    cluster, workload, material, seed, scale
                )
                requests = replay_requests(prefilled, seed)
                warmup_source = requests
            else:
                requests = fresh_requests(workload, material, seed)
            first = next(warmup_source)
            reply = await send(cluster.client, workload, first[0])
            wrong = await count_wrong(
                cluster.client, workload, material, [(first, reply)], seed, scale
            )
            if wrong:
                raise RuntimeError("warm-up reply failed its oracle")
            run.setup_s.append(time.perf_counter() - spawned_at)
            if boot < setups - 1:
                await cluster.stop()
                shutil.rmtree(cluster.workdir)

        latencies = []
        for _ in range(WARMUPS - 1):
            started = time.perf_counter()
            await send(cluster.client, workload, next(warmup_source)[0])
            latencies.append(time.perf_counter() - started)
        if workload.method == "decrypt":
            # Encrypt before the window so the client's cores are the
            # daemons' during it.  A closed loop of CLIENTS cannot exceed
            # CLIENTS / (unloaded latency); a quarter on top is headroom.
            bound = math.ceil(1.25 * CLIENTS / min(latencies) * seconds) + CLIENTS
            requests = iter([next(requests) for _ in range(bound)])
        await _quiesce(cluster)
        stats = await cluster.client.node_stats(1)
        run.backend = stats["crypto_backend"]["name"]
        run.daemon_cpus = cluster.daemon_cpus()
        if layers:
            pings = []
            for _ in range(max(10, round(PINGS * scale))):
                started = time.perf_counter()
                await cluster.client.call(1, "ping", {})
                pings.append((time.perf_counter() - started) * 1e3)
            run.ping_ms = statistics.median(pings)
            before = await _scrape(cluster)
        run.rss_kb_warm = cluster.rss_kb()
        disk_before = cluster.disk_kb()

        cpu_before = cluster.cpu_seconds()
        window_start = time.perf_counter()
        window_end = window_start + seconds
        done = await _closed_loop(
            cluster.client, workload, requests, until=window_end
        )
        await _quiesce(cluster)
        run.cpu_s = cluster.cpu_seconds() - cpu_before

        run.rss_kb_end = cluster.rss_kb()
        run.disk_kb = cluster.disk_kb() - disk_before
        if layers:
            after = await _scrape(cluster)
            run.scrape = {
                key: value - before.get(key, 0.0) for key, value in after.items()
            }
        answered = [(request, reply) for request, reply, _, _ in done if reply is not None]
        run.attempted = len(done)
        run.failed = (len(done) - len(answered)) + await count_wrong(
            cluster.client, workload, material, answered, seed, scale
        )
        run.latencies_ms = [
            (end - start) * 1e3 for _, reply, start, end in done if reply is not None
        ]
        # A request in flight when the window closes counts for the part of
        # it that lay inside: whole requests only would quantise a 46-sample
        # workload in 2 % steps.
        run.in_window = sum(
            min(1.0, (window_end - start) / (end - start))
            for _, reply, start, end in done
            if reply is not None
        )
    finally:
        if cluster is not None:
            await cluster.stop()
    return run
