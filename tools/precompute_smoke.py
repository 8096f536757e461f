#!/usr/bin/env python3
"""Precompute pipeline smoke gate (``make precompute-smoke``).

The docs/performance.md "Precompute pipeline" contract, exercised end to
end on real daemon processes:

* deal SG02 keys for a 2-node (t = 1) TCP cluster and start both daemons
  with ``--precompute-depth 8`` and per-node data dirs;
* announce two upcoming ciphertexts over the ``precompute`` RPC (every
  node must report them staged: their instances ran ahead of demand),
  then decrypt them: both must resolve correctly and the Prometheus
  scrape must count them as
  ``repro_precompute_served_total{op="decrypt",source="pool"}``;
* decrypt one *unannounced* ciphertext: correct result, counted under
  ``source="inline"`` — the on-demand path is untouched;
* announce that already-decrypted ciphertext: every node answers
  ``duplicate`` and runs nothing;
* the depth gauge must read 0 on both daemons at the end (nothing is
  left queued or running), the ``ok`` outcome counter must count the
  announced requests, and ``node_stats`` must report the pipeline
  enabled;
* SIGTERM both daemons and assert clean exit with nothing orphaned —
  the run-ahead loop must not pin the process past shutdown.

Exit status 0 on success; prints the offending assertion otherwise.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

from _daemons import deal_keys, spawn_daemon, stop_daemons, wait_for_ping

from repro.service.client import ThetacryptClient
from repro.telemetry import parse_text

PARTIES, THRESHOLD = 2, 1
PRECOMPUTE_DEPTH = 8
# Distinct from the other smoke gates' port ranges so they can run back
# to back (TIME_WAIT) or even concurrently.
BASE_PORT, RPC_BASE_PORT = 22500, 22600


def _counter(parsed: dict, name: str, **labels: str) -> float:
    return sum(
        value
        for (metric, metric_labels), value in parsed.items()
        if metric == name
        and all(dict(metric_labels).get(k) == v for k, v in labels.items())
    )


async def _await_counter(
    client: ThetacryptClient,
    node_id: int,
    name: str,
    expected: float,
    **labels: str,
) -> dict:
    """Poll one node's scrape until ``name{labels} >= expected``.

    The client returns on the *first* node's assembled result; its peers
    may still be folding the request into their own instances, so the
    counters converge shortly after — never instantly.
    """
    deadline = time.monotonic() + 15.0
    while True:
        parsed = parse_text(await client.metrics(node_id))
        if _counter(parsed, name, **labels) >= expected:
            return parsed
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"node {node_id}: {name}{labels} never reached {expected}: "
                f"{_counter(parsed, name, **labels)}"
            )
        await asyncio.sleep(0.1)


async def drive(client: ThetacryptClient, daemons: list) -> None:
    for node_id, daemon in enumerate(daemons, start=1):
        await wait_for_ping(client, node_id, daemon)
    print(f"  {PARTIES} daemons up with --precompute-depth {PRECOMPUTE_DEPTH}")

    # Announce two upcoming decrypts; every node runs their instances
    # ahead of demand.
    secrets = [b"precompute smoke one", b"precompute smoke two"]
    ciphertexts = [
        await client.encrypt("sg02", secret, b"smoke") for secret in secrets
    ]
    reports = await client.precompute("sg02", items=ciphertexts, label=b"smoke")
    for node_id, report in reports.items():
        assert not isinstance(report, Exception), f"node {node_id}: {report}"
        assert report.get("staged") == len(ciphertexts), (
            f"node {node_id} staged {report}"
        )
    print(f"  announced {len(ciphertexts)} requests: staged on every node")

    # Warm requests: correct results, served from the pipeline.
    for secret, ciphertext in zip(secrets, ciphertexts):
        assert await client.decrypt("sg02", ciphertext, b"smoke") == secret
    for node_id in range(1, PARTIES + 1):
        parsed = await _await_counter(
            client,
            node_id,
            "repro_precompute_served_total",
            len(ciphertexts),
            op="decrypt",
            source="pool",
        )
        ran_ahead = _counter(
            parsed, "repro_precompute_refills_total", op="decrypt", outcome="ok"
        )
        assert ran_ahead == len(ciphertexts), (
            f"node {node_id}: {ran_ahead} announced requests ran ahead"
        )
        stats = await client.node_stats(node_id)
        pipeline = stats.get("precompute", {})
        assert pipeline.get("enabled") is True, (
            f"node {node_id}: pipeline not enabled: {pipeline}"
        )
    print("  warm decrypts served from the pool (scrape + node_stats OK)")

    # An unannounced request degrades to the on-demand path, visibly.
    cold_secret = b"precompute smoke cold"
    cold = await client.encrypt("sg02", cold_secret, b"smoke")
    assert await client.decrypt("sg02", cold, b"smoke") == cold_secret
    for node_id in range(1, PARTIES + 1):
        await _await_counter(
            client,
            node_id,
            "repro_precompute_served_total",
            1,
            op="decrypt",
            source="inline",
        )
    print("  cold decrypt fell back inline (counter scraped)")

    # The request overtook any announce of it: the announce runs nothing.
    reports = await client.precompute("sg02", items=[cold], label=b"smoke")
    for node_id, report in reports.items():
        assert report == {"duplicate": 1, "depth": {}}, f"node {node_id}: {report}"
    for node_id in range(1, PARTIES + 1):
        parsed = parse_text(await client.metrics(node_id))
        depth = [
            value
            for (metric, labels), value in parsed.items()
            if metric == "repro_precompute_pool_depth"
            and dict(labels).get("op") == "decrypt"
        ]
        assert depth == [0], f"node {node_id}: depth gauge reads {depth}"
    print("  announce of a decrypted ciphertext: duplicate; depth gauge 0")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="precompute-smoke-") as tmp:
        out = Path(tmp)
        print(f"dealing keys for a ({THRESHOLD}, {PARTIES}) network ...")
        deal_keys(
            "--parties", str(PARTIES),
            "--threshold", str(THRESHOLD),
            "--schemes", "sg02",
            "--base-port", str(BASE_PORT),
            "--rpc-base-port", str(RPC_BASE_PORT),
            "--data-dir",
            "--out", str(out),
        )
        daemons = [
            spawn_daemon(
                out / f"node{i}", "--precompute-depth", str(PRECOMPUTE_DEPTH)
            )
            for i in range(1, PARTIES + 1)
        ]
        try:

            async def run() -> None:
                addresses = {
                    i: ("127.0.0.1", RPC_BASE_PORT + i)
                    for i in range(1, PARTIES + 1)
                }
                client = ThetacryptClient(addresses)
                try:
                    await drive(client, daemons)
                finally:
                    await client.close()

            asyncio.run(run())
        finally:
            # The orphan check: the run-ahead task must not pin the daemon
            # past SIGTERM — both processes must exit on their own.
            assert not stop_daemons(daemons), (
                "daemon survived SIGTERM: run-ahead loop pinned shutdown"
            )
        print("  both daemons exited cleanly after SIGTERM")
    print("precompute smoke OK")


if __name__ == "__main__":
    main()
