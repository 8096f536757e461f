"""The trace pass: one in-process cluster, serial requests, spans on/off.

Four ``ThetacryptNode`` objects share this process's event loop over a
``LocalHub``; each serves RPC on a real loopback socket and one
``ThetacryptClient`` drives them.  Requests run one at a time and the next
starts only when every node is idle, so all spans recorded in between
belong to that request.  Odd requests run with the wrappers installed,
even ones with them removed: the two halves see the same cache state and
their wall-clock ratio is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from pathlib import Path

from cluster import PARTIES, THRESHOLD
from tracing import Tracer
from workloads import REPLAY_SET, Workload, fresh_requests, replay_requests, send

from repro.errors import InvalidShareError
from repro.network.local import LocalHub
from repro.schemes import bls04
from repro.service.client import ThetacryptClient
from repro.service.config import make_local_configs
from repro.service.node import ThetacryptNode


@dataclass
class TracePass:
    spans: list[tuple]
    traced_ops: int
    traced_wall_s: float  # summed request walls with the wrappers installed
    untraced_wall_s: float  # the same number of requests, wrappers removed
    bad_batch_ms: float  # bls04 verify_share_batch, one corrupted share


class _LocalCluster:
    """Four in-process nodes, restartable from their ``data_dir``s."""

    def __init__(self, material: dict, workdir: Path | None):
        self._material = material
        self._configs = make_local_configs(
            PARTIES, THRESHOLD, transport="local", rpc_base_port=0
        )
        if workdir is not None:
            self._configs = [
                replace(c, data_dir=str(workdir / f"node{c.node_id}"))
                for c in self._configs
            ]
        self.nodes: list[ThetacryptNode] = []
        self.client: ThetacryptClient | None = None

    async def start(self) -> None:
        hub = LocalHub()
        self.nodes = [
            ThetacryptNode(c, transport=hub.endpoint(c.node_id))
            for c in self._configs
        ]
        for node in self.nodes:
            for key_id, km in self._material.items():
                node.install_key(
                    key_id, km.scheme, km.public_key, km.share_for(node.config.node_id)
                )
            await node.start()
        self.client = ThetacryptClient(
            {n.config.node_id: n.rpc_address for n in self.nodes}, max_retries=0
        )

    async def stop(self) -> None:
        if self.client is not None:
            await self.client.close()
        for node in self.nodes:
            await node.stop()

    async def request(self, workload: Workload, payload: bytes) -> float:
        """One request, timed until every node is idle again."""
        started = time.perf_counter()
        await send(self.client, workload, payload)
        while any(node.instances.active_count for node in self.nodes):
            await asyncio.sleep(0.002)
        return time.perf_counter() - started


def _time_bad_batch(material: dict, scale: float) -> float:
    """The BLS04 failure path: a quorum-sized batch, one share corrupted,
    culprits identified.  No workload reaches it, so it is timed alone."""
    scheme = bls04.Bls04SignatureScheme()
    km = material["bls04"]
    message = b"thetabench bad batch"
    shares = [scheme.partial_sign(km.share_for(i), message) for i in (1, 2)]
    forged = scheme.partial_sign(km.share_for(2), b"another message")
    shares[1] = bls04.Bls04SignatureShare(2, forged.sigma)
    samples = []
    for _ in range(max(1, round(3 * scale))):
        started = time.perf_counter()
        try:
            scheme.verify_share_batch(km.public_key, message, shares, identify=True)
        except InvalidShareError:
            samples.append((time.perf_counter() - started) * 1e3)
        else:
            raise RuntimeError("corrupted share passed batch verification")
    return sorted(samples)[len(samples) // 2]


async def trace_pass(
    workload: Workload, material: dict, seed: int, workdir: Path, scale: float
) -> TracePass:
    tracer = Tracer()
    cluster = _LocalCluster(material, workdir if workload.durable else None)
    await cluster.start()
    try:
        requests = fresh_requests(workload, material, seed)
        if workload.replay:
            prefilled = []
            for _ in range(max(4, round(REPLAY_SET * scale))):
                payload, _ = next(requests)
                prefilled.append((payload, None))
                await cluster.request(workload, payload)
            await cluster.stop()
            await cluster.start()  # recovery: results come back from disk
            requests = replay_requests(prefilled, seed)
        for _ in range(2):  # fixed-base tables of the long-lived bases
            await cluster.request(workload, next(requests)[0])
        walls = {True: 0.0, False: 0.0}
        pairs = max(1, round(workload.trace_requests * scale))
        for index in range(2 * pairs):
            traced = index % 2 == 1
            payload = next(requests)[0]
            if traced:
                tracer.request = index // 2
                tracer.install()
                await asyncio.sleep(0)  # the request starts in a traced callback
            try:
                walls[traced] += await cluster.request(workload, payload)
            finally:
                tracer.uninstall()
    finally:
        await cluster.stop()
    return TracePass(
        spans=tracer.spans,
        traced_ops=pairs,
        traced_wall_s=walls[True],
        untraced_wall_s=walls[False],
        bad_batch_ms=(
            _time_bad_batch(material, scale) if workload.scheme == "bls04" else 0.0
        ),
    )
