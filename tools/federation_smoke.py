#!/usr/bin/env python3
"""Federation smoke gate (``make federation-smoke``).

The docs/federation.md contract, exercised end to end on real processes:

* deal keys from a 2-group topology (``tools/deal_keys.py --topology``):
  group *alpha* (2 nodes) owns ``sg02``, group *beta* (2 nodes) owns
  ``bls04`` — disjoint keyspaces by pinned assignment;
* start all 4 node daemons plus one stateless router daemon
  (``repro.router.daemon``) and drive everything through the router's
  single RPC endpoint: SG02 encrypt→decrypt must land on alpha, BLS04
  sign/verify on beta;
* scrape the router over RPC and assert the per-shard telemetry —
  ``repro_router_requests_total{group=...}`` counted both shards and
  nothing errored;
* statelessness: SIGKILL the router mid-workload (concurrent idempotent
  decrypts in flight), restart it on the same port, and require every
  accepted request to complete — the client's idempotent retry plus the
  groups' result caches mean a router death loses nothing;
* SIGTERM everything and assert no process survives (no orphans).

Exit status 0 on success; prints the offending assertion otherwise.
"""

from __future__ import annotations

import asyncio
import subprocess
import tempfile
from pathlib import Path

from _daemons import deal_keys, spawn, spawn_daemon, stop_daemons, wait_for_ping

from repro.router.topology import GroupSpec, Topology
from repro.service.client import ThetacryptClient
from repro.telemetry import parse_text

# Distinct from the other smoke gates' port ranges so they can run back
# to back (TIME_WAIT) or even concurrently.
ALPHA_BASE, ALPHA_RPC = 23100, 23200
BETA_BASE, BETA_RPC = 23300, 23400
ROUTER_PORT = 23500
PARTIES, THRESHOLD = 2, 1
CONCURRENT_DECRYPTS = 8

TOPOLOGY = Topology(
    groups=(
        GroupSpec(
            "alpha", PARTIES, THRESHOLD,
            base_port=ALPHA_BASE, rpc_base_port=ALPHA_RPC,
        ),
        GroupSpec(
            "beta", PARTIES, THRESHOLD,
            base_port=BETA_BASE, rpc_base_port=BETA_RPC,
        ),
    ),
    assignments={"sg02": "alpha", "bls04": "beta"},
)


def spawn_router(out: Path) -> subprocess.Popen:
    return spawn(
        "repro.router.daemon",
        out / "router.log",
        "--topology", str(out / "topology.json"),
        "--rpc-port", str(ROUTER_PORT),
    )


def shard_requests(metrics_text: str) -> dict[str, dict[str, float]]:
    """``group -> outcome -> count`` from a router scrape."""
    shards: dict[str, dict[str, float]] = {}
    for (name, labels), value in parse_text(metrics_text).items():
        if name != "repro_router_requests_total":
            continue
        by = dict(labels)
        outcomes = shards.setdefault(by["group"], {})
        outcomes[by["outcome"]] = outcomes.get(by["outcome"], 0) + value
    return shards


async def drive(
    client: ThetacryptClient, router: subprocess.Popen
) -> list[bytes]:
    """Both shards through the router; returns ciphertexts for the kill."""
    pong = await wait_for_ping(client, 0, router)
    assert set(pong.get("groups", [])) == {"alpha", "beta"}, pong
    print(f"  router up, fronting groups {pong['groups']}")

    plaintext = b"federation smoke plaintext"
    ciphertext = await client.encrypt("sg02", plaintext, b"smoke")
    assert await client.decrypt("sg02", ciphertext, b"smoke") == plaintext
    print("  sg02 encrypt -> threshold decrypt OK (group alpha)")

    message = b"federation smoke message"
    signature = await client.sign("bls04", message)
    assert await client.verify_signature("bls04", message, signature)
    print("  bls04 threshold signature OK (group beta)")

    shards = shard_requests(await client.metrics(0))
    for group in ("alpha", "beta"):
        assert shards.get(group, {}).get("ok", 0) >= 2, (
            f"router served no requests for shard {group}: {shards}"
        )
        assert not shards[group].get("error"), (
            f"shard {group} reported errors: {shards}"
        )
    print(f"  per-shard router telemetry OK: "
          + " ".join(f"{g}:{int(s.get('ok', 0))}" for g, s in shards.items()))

    # Ciphertexts for the statelessness phase: distinct payloads so every
    # decrypt is a distinct (cached, idempotent) instance.
    return [
        await client.encrypt("sg02", f"kill-phase-{i}".encode(), b"smoke")
        for i in range(CONCURRENT_DECRYPTS)
    ]


async def kill_and_restart_router(
    out: Path, router: subprocess.Popen, ciphertexts: list[bytes]
) -> subprocess.Popen:
    """SIGKILL the router mid-workload; every accepted request completes."""
    # A patient client: it must ride out the router's death (connection
    # resets) and keep retrying the idempotent decrypts until the
    # replacement router answers.
    client = ThetacryptClient(
        {0: ("127.0.0.1", ROUTER_PORT)},
        max_retries=40,
        retry_base=0.05,
        retry_cap=0.5,
    )
    try:
        tasks = [
            asyncio.ensure_future(
                client.decrypt("sg02", ciphertext, b"smoke")
            )
            for ciphertext in ciphertexts
        ]
        await asyncio.sleep(0.15)  # let the workload reach the router
        router.kill()
        router.wait(timeout=30)
        print(f"  router SIGKILLed with {len(tasks)} decrypts in flight")
        await asyncio.sleep(0.3)
        replacement = spawn_router(out)
        results = await asyncio.gather(*tasks)
        for index, plaintext in enumerate(results):
            assert plaintext == f"kill-phase-{index}".encode(), (
                f"request {index} corrupted after router restart"
            )
        print(
            f"  all {len(results)} in-flight decrypts completed through "
            f"the restarted router (no accepted request lost)"
        )
        return replacement
    finally:
        await client.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="federation-smoke-") as tmp:
        out = Path(tmp)
        (out / "topology.json").write_text(TOPOLOGY.to_json())
        print("dealing disjoint keys across 2 groups ...")
        deal_keys(
            "--topology", str(out / "topology.json"),
            "--keys", "sg02,bls04",
            "--out", str(out),
        )
        # The dealer must have split the keyspace, not replicated it.
        alpha_keys = (out / "group-alpha" / "node1" / "keystore.json").read_text()
        beta_keys = (out / "group-beta" / "node1" / "keystore.json").read_text()
        assert "sg02" in alpha_keys and "sg02" not in beta_keys
        assert "bls04" in beta_keys and "bls04" not in alpha_keys
        print("  keystores disjoint: alpha holds sg02, beta holds bls04")

        daemons = [
            spawn_daemon(out / f"group-{group_id}" / f"node{node_id}")
            for group_id in ("alpha", "beta")
            for node_id in range(1, PARTIES + 1)
        ]
        router = spawn_router(out)
        try:

            async def run() -> subprocess.Popen:
                client = ThetacryptClient({0: ("127.0.0.1", ROUTER_PORT)})
                try:
                    ciphertexts = await drive(client, router)
                finally:
                    await client.close()
                return await kill_and_restart_router(out, router, ciphertexts)

            replacement = asyncio.run(run())
            daemons.append(replacement)
        finally:
            # No orphans: every spawned process (nodes, both routers) must
            # exit on SIGTERM.
            leaked = [d.pid for d in stop_daemons(daemons + [router])]
        assert not leaked, f"processes survived shutdown: {leaked}"
        print("  all node/router processes exited after SIGTERM")
    print("federation smoke OK")


if __name__ == "__main__":
    main()
