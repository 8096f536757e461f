"""Ablation benchmarks for the design choices called out in DESIGN.md.

* TRI/executor overhead vs. calling scheme primitives directly;
* FROST with precomputation (1 online round) vs. the full 2-round run;
* routing the interactive scheme over TOB vs. plain P2P;
* hybrid encryption: threshold-layer cost is payload-independent.
"""

import asyncio
import time

from repro.schemes import generate_keys, get_scheme
from repro.service.cluster import LocalCluster
from repro.sim.deployments import Deployment
from repro.sim.experiments import run_once
from repro.sim.latency import Region

from _common import ms, print_table


def test_ablation_tri_executor_overhead(benchmark, keys_by_scheme):
    """Service-path cost vs. raw primitive cost for one coin flip."""
    keys = keys_by_scheme["cks05"]
    scheme = get_scheme("cks05")

    # Raw primitives: share generation at 2 parties + combine, no stack.
    start = time.perf_counter()
    for round_number in range(10):
        name = b"raw-%d" % round_number
        shares = [scheme.create_coin_share(keys.share_for(i), name) for i in (1, 2)]
        for share in shares:
            scheme.verify_coin_share(keys.public_key, name, share)
        scheme.combine(keys.public_key, name, shares)
    raw = (time.perf_counter() - start) / 10

    async def service_flips():
        async with LocalCluster({"coin": keys}, latency=0.0) as cluster:
            start = time.perf_counter()
            for round_number in range(10):
                await cluster.client.flip_coin("coin", b"svc-%d" % round_number)
            return (time.perf_counter() - start) / 10

    service = asyncio.run(service_flips())
    print_table(
        "Ablation: TRI executor + service overhead (one coin flip)",
        ["path", "latency (ms)"],
        [["raw primitives", ms(raw)], ["full service stack", ms(service)]],
    )
    # The generic executor adds overhead but not an order of magnitude.
    assert service < raw * 50
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_frost_precomputation(benchmark):
    """Paper §3.5: precomputation turns FROST into a one-round protocol."""
    keys = generate_keys("kg20", 1, 4)

    async def scenario():
        # 10 ms links make the saved round clearly visible.
        async with LocalCluster({"wallet": keys}, latency=0.010) as cluster:
            client = cluster.client
            # Two-round latency.
            start = time.perf_counter()
            await client.sign("wallet", b"cold path")
            two_round = time.perf_counter() - start
            # Precompute, then one-round latency.
            await client.precompute("wallet", 4)
            start = time.perf_counter()
            await client.sign("wallet", b"hot path")
            one_round = time.perf_counter() - start
        return two_round, one_round

    two_round, one_round = asyncio.run(scenario())
    print_table(
        "Ablation: FROST precomputation (10 ms links)",
        ["mode", "signing latency (ms)"],
        [["two rounds (worst case, as benchmarked in §4.4)", ms(two_round)],
         ["one round (precomputed nonces)", ms(one_round)]],
    )
    assert one_round < two_round
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_tob_vs_p2p_for_kg20(benchmark):
    """Routing FROST's rounds through the sequencer TOB costs extra hops."""
    tiny_global = Deployment(
        "ABL-4-G", "tiny", 4, 1,
        (Region.FRA1, Region.SYD1, Region.TOR1, Region.SFO3), 64,
    )
    results = {}

    def run():
        results["p2p"] = run_once(tiny_global, "kg20", 1, 2.0)
        results["tob"] = run_once(tiny_global, "kg20", 1, 2.0, kg20_over_tob=True)

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: KG20 over P2P vs sequencer TOB (global 4-node)",
        ["channel", "L50 (ms)", "L95 (ms)"],
        [
            ["P2P (direct)", ms(results["p2p"].l50), ms(results["p2p"].l95)],
            ["TOB (via sequencer)", ms(results["tob"].l50), ms(results["tob"].l95)],
        ],
    )
    assert results["tob"].l95 > results["p2p"].l95


def test_ablation_hybrid_encryption_payload(benchmark, keys_by_scheme):
    """The threshold layer's cost is constant in the payload size."""
    keys = keys_by_scheme["sg02"]
    scheme = get_scheme("sg02")
    rows = []
    share_times = {}
    for size in (256, 4096, 262144):
        payload = bytes(size)
        ct = scheme.encrypt(keys.public_key, payload, b"l")
        start = time.perf_counter()
        for _ in range(5):
            scheme.create_decryption_share(keys.share_for(1), ct)
        share_times[size] = (time.perf_counter() - start) / 5
        rows.append([f"{size} B", ms(share_times[size])])
    print_table(
        "Ablation: SG02 decryption-share cost vs payload (hybrid encryption)",
        ["payload", "share time (ms)"],
        rows,
    )
    # 1 KiB → 256 KiB: share generation (the threshold part) barely moves.
    assert share_times[262144] < share_times[256] * 2.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
