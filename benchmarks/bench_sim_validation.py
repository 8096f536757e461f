"""Simulator validity check: the live service vs. the DES, same conditions.

The evaluation rests on the discrete-event simulator, so this benchmark
closes the loop: run a small *real* Θ-network (4 nodes, in-process
transport, 1 ms links) under increasing load and measure server-side
latency from the instance records — then run the simulator on the same
deployment with the *measured* cost model (priced from this machine's
pure-Python primitives) and compare.

We require agreement in shape, not in microseconds: latency flat at low
rates, the same throughput ordering, and saturation appearing in the same
rate region.
"""

import asyncio
import time

from repro.core.orchestration import derive_instance_id
from repro.schemes import generate_keys
from repro.service.cluster import LocalCluster
from repro.sim.cluster import SimulatedThetaNetwork
from repro.sim.deployments import Deployment
from repro.sim.latency import LatencyModel, Region
from repro.sim.metrics import latency_percentile, summarize
from repro.sim.workload import Workload

from _common import fast_mode, ms, print_table

PARTIES, THRESHOLD = 4, 1
RATES = (2, 8) if fast_mode() else (2, 8, 32)
SECONDS_PER_RATE = 2.0


async def _measure_live(rates):
    keys = generate_keys("cks05", THRESHOLD, PARTIES)
    results = {}
    sequence = 0
    async with LocalCluster(
        {"coin": keys}, parties=PARTIES, threshold=THRESHOLD
    ) as cluster:
        nodes, client = cluster.nodes, cluster.client
        await client.flip_coin("coin", b"warmup")
        for rate in rates:
            count = max(4, int(rate * SECONDS_PER_RATE))
            # Open-loop: fire requests on schedule without awaiting results.
            tasks, instance_ids = [], set()
            start = time.perf_counter()
            for k in range(count):
                target = start + k / rate
                delay = max(0.0, target - time.perf_counter())
                if delay:
                    await asyncio.sleep(delay)
                sequence += 1
                name = b"load-%d" % sequence
                instance_ids.add(derive_instance_id("coin", "coin", name))
                tasks.append(asyncio.ensure_future(client.flip_coin("coin", name)))
            await asyncio.gather(*tasks)
            elapsed = time.perf_counter() - start
            # This rate's own instances, wherever they have terminated.
            latencies = sorted(
                record.latency
                for node in nodes
                for record in node.instances.records()
                if record.instance_id in instance_ids and record.latency is not None
            )
            results[rate] = (
                count / elapsed,
                latency_percentile(latencies, 95),
            )
    return results


def _scaled_measured_model():
    """Measured primitives scaled by n: the live harness timeshares one
    core among all nodes, while the DES gives each node its own CPU."""
    from repro.sim.costs import CostModel, _derive_scheme_costs, measure_primitives

    primitives = {
        name: value * PARTIES for name, value in measure_primitives().items()
    }
    primitives["per_party_cap"] = 40  # not a duration; undo the scaling
    return CostModel(_derive_scheme_costs(primitives), label="measured×n")


def _measure_sim(rates):
    deployment = Deployment("LIVE-4", "tiny", PARTIES, THRESHOLD, (Region.FRA1,), 64)
    # 1 ms links to match the live hub; costs measured from this machine's
    # own pure-Python primitives (scaled for the shared core), because that
    # is what the live stack runs.
    model = _scaled_measured_model()
    results = {}
    for rate in rates:
        network = SimulatedThetaNetwork(
            deployment,
            "cks05",
            cost_model=model,
            latency_model=_FixedLatency(0.001),
        )
        workload = Workload(rate=rate, duration=SECONDS_PER_RATE, max_requests=256)
        metrics = summarize(network.run(workload), deployment.quorum, PARTIES)
        results[rate] = (metrics.throughput, metrics.l95)
    return results


class _FixedLatency(LatencyModel):
    """Constant one-way delay, matching the live LocalHub configuration."""

    def __init__(self, delay: float):
        super().__init__(jitter_fraction=0.0)
        self._delay = delay

    def one_way(self, src, dst):
        return self._delay


def test_simulator_matches_live_service(benchmark):
    live = asyncio.run(_measure_live(RATES))
    sim = _measure_sim(RATES)
    rows = []
    for rate in RATES:
        live_tput, live_l95 = live[rate]
        sim_tput, sim_l95 = sim[rate]
        rows.append(
            [rate, f"{live_tput:.1f}", ms(live_l95), f"{sim_tput:.1f}", ms(sim_l95)]
        )
    print_table(
        "Simulator validation: live 4-node service vs DES (cks05)",
        ["rate", "live tput", "live L95 (ms)", "sim tput", "sim L95 (ms)"],
        rows,
    )
    # Shape agreement:
    # 1. both sustain the offered load at low rates;
    for rate in RATES[:2]:
        assert live[rate][0] > rate * 0.5
        assert sim[rate][0] > rate * 0.5
    # 2. latencies are the same order of magnitude at the low rate (the
    #    live stack adds asyncio/RPC overhead the cost model only
    #    approximates — a factor 5 band is the agreement we claim);
    low = RATES[0]
    ratio = live[low][1] / sim[low][1]
    assert 0.2 < ratio < 5.0, f"live/sim L95 ratio {ratio:.2f} out of band"
    # 3. latency is non-decreasing with load in both systems.
    assert live[RATES[-1]][1] >= live[RATES[0]][1] * 0.5
    assert sim[RATES[-1]][1] >= sim[RATES[0]][1] * 0.5
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
