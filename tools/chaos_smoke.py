#!/usr/bin/env python3
"""Chaos smoke gate: a seeded 4-node cluster with one crashed and one
byzantine node must still finalize SG02 decryption and BLS04 signing
(``make chaos-smoke``).

The scenario is a :class:`~repro.network.faults.FaultPlan` with a fixed
seed, so the run is reproducible; the gate asserts:

* both threshold operations finalize despite 2 of 4 nodes being faulty
  (t = 1 ⇒ quorum 2, which the two honest nodes reach on their own),
* the BLS04 verify-after-combine failure path fired at an honest node: a
  well-formed share of the wrong message, planted under node 3's id ahead
  of the request, fails the combined check, is counted as ``rejected``,
  and the signature the client gets still verifies,
* the injected faults are visible as ``repro_faults_injected`` samples in
  the Prometheus scrape, and
* re-running the same seed yields an identical fault schedule (replayed
  offline through two independent :class:`FaultInjector` instances) and a
  second full cluster run that succeeds identically.

Exit status 0 on success; prints the offending assertion otherwise.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.messages import Channel, ProtocolMessage
from repro.network.faults import Crash, FaultInjector, FaultPlan, LinkFaults
from repro.network.local import LocalHub
from repro.schemes import generate_keys, get_scheme
from repro.service.client import ThetacryptClient
from repro.service.config import make_local_configs
from repro.service.node import ThetacryptNode, derive_instance_id
from repro.telemetry import parse_text

PARTIES, THRESHOLD = 4, 1
SEED = 2026

#: Node 4 is crash-stopped from the start, node 3 corrupts every outgoing
#: protocol payload; every link adds a little jittered delay.
PLAN = FaultPlan(
    seed=SEED,
    default=LinkFaults(delay=0.002, jitter=0.003),
    crashes=(Crash(node=4, at=0.0),),
    byzantine=(3,),
)


def metric_sum(parsed, name: str, **labels) -> float:
    wanted = set(labels.items())
    values = [
        value
        for (sample_name, sample_labels), value in parsed.items()
        if sample_name == name and wanted <= set(sample_labels)
    ]
    if not values:
        raise AssertionError(f"scrape is missing {name} with labels {labels}")
    return sum(values)


async def run_cluster(key_sets) -> tuple[bytes, str]:
    """One full chaos run; returns (recovered plaintext, metrics scrape)."""
    configs = make_local_configs(
        PARTIES,
        THRESHOLD,
        transport="local",
        rpc_base_port=0,
        fault_plan=PLAN,
        instance_timeout=15.0,
    )
    hub = LocalHub(latency=lambda a, b: 0.0005)
    nodes: list[ThetacryptNode] = []
    for config in configs:
        node = ThetacryptNode(config, transport=hub.endpoint(config.node_id))
        for key_id, keys in key_sets.items():
            node.install_key(
                key_id, keys.scheme, keys.public_key,
                keys.share_for(config.node_id),
            )
        await node.start()
        nodes.append(node)
    client = ThetacryptClient({n.config.node_id: n.rpc_address for n in nodes})
    try:
        ciphertext = await client.encrypt(
            "cipher-sg02", b"chaos smoke secret", b"l", node_id=1
        )
        plaintext = await client.decrypt("cipher-sg02", ciphertext, b"l")
        assert plaintext == b"chaos smoke secret", "SG02 decryption corrupted"

        # The plan's byte flips never survive the G1 on-curve check, so
        # they are rejected at decode.  A decodable forgery is what drives
        # the lazy admission's failure path: node 3's share of another
        # message, waiting in node 1's backlog, forms the quorum with node
        # 1's own share, fails the combined check and must be evicted
        # before node 2's share finishes the job.
        forged = get_scheme("bls04").partial_sign(
            key_sets["sig-bls04"].share_for(3), b"not the message"
        )
        await nodes[0].instances.handle_network_message(
            ProtocolMessage(
                derive_instance_id("sign", "sig-bls04", b"chaos smoke", b""),
                sender=3,
                round=0,
                channel=Channel.P2P,
                payload=forged.to_bytes(),
            )
        )
        signature = await client.sign("sig-bls04", b"chaos smoke")
        assert await client.verify_signature(
            "sig-bls04", b"chaos smoke", signature
        ), "BLS04 signature did not verify"

        scrape = await client.metrics(1)
        return plaintext, scrape
    finally:
        await client.close()
        for node in nodes:
            await node.stop()


def assert_identical_schedule() -> None:
    """Same seed ⇒ identical per-link fault schedule, replayed offline."""
    a, b = FaultInjector(PLAN), FaultInjector(PLAN)
    for src in range(1, PARTIES + 1):
        for dst in range(1, PARTIES + 1):
            if src == dst:
                continue
            seq_a = [a.decide(src, dst) for _ in range(200)]
            seq_b = [b.decide(src, dst) for _ in range(200)]
            assert seq_a == seq_b, f"schedule diverged on link {src}->{dst}"


async def main() -> None:
    print(f"dealing keys for a ({THRESHOLD}, {PARTIES}) network ...")
    key_sets = {
        "cipher-sg02": generate_keys("sg02", THRESHOLD, PARTIES),
        "sig-bls04": generate_keys("bls04", THRESHOLD, PARTIES),
    }

    print(
        f"chaos plan: seed={SEED}, crash node 4, byzantine node 3, "
        "jittered delay on every link"
    )
    plaintext_a, scrape = await run_cluster(key_sets)
    print("  run 1: SG02 decryption and BLS04 signing finalized")

    parsed = parse_text(scrape)
    assert parsed, "metrics scrape produced no samples"
    injected: dict[str, float] = {}
    for (name, labels), value in parsed.items():
        if name == "repro_faults_injected":
            kind = dict(labels)["kind"]
            injected[kind] = injected.get(kind, 0.0) + value
    assert injected, "no repro_faults_injected samples in the scrape"
    assert metric_sum(parsed, "repro_faults_injected", kind="crash") >= 1
    assert metric_sum(parsed, "repro_faults_injected", kind="corrupt") >= 1
    print(f"  faults visible in scrape: {injected}")
    rejected = metric_sum(
        parsed, "repro_tri_messages_total", scheme="bls04", outcome="rejected"
    )
    assert rejected >= 1, "node 1 never rejected the forged BLS04 share"
    print(f"  BLS04 failure path fired at node 1: {rejected:.0f} share(s) rejected")

    assert_identical_schedule()
    print("  replay: same seed yields an identical per-link fault schedule")

    plaintext_b, _ = await run_cluster(key_sets)
    assert plaintext_b == plaintext_a
    print("  run 2: same seed, same outcome")

    print("chaos smoke OK")


if __name__ == "__main__":
    asyncio.run(main())
