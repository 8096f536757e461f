#!/usr/bin/env python3
"""Crash-recovery smoke gate (``make recovery-smoke``).

The durability contract of docs/robustness.md, exercised end to end on
real daemon processes:

* deal keys for a 4-node (t = 1) TCP cluster with per-node ``data_dir``;
* finalize one BLS04 signature cluster-wide, then park a second request
  in flight on node 4 alone (its peers never see it, so it cannot reach
  quorum);
* SIGKILL node 4 — no drain, no log close: the pending instance dies
  with the process;
* restart node 4 from its ``data_dir`` and assert that recovery
  - reloaded the key shares from the durable keystore,
  - answers a duplicate of the finalized request from the outcome log
    (byte-identical signature, no protocol re-run),
  - reports the in-flight-at-crash instance as aborted with the
    structured ``crash_recovery`` reason (status RPC + node stats +
    ``repro_recovery_*`` metrics), and
  - participates in fresh protocol runs (cluster liveness);
* SIGKILL and restart node 4 a second time: the duplicate is still
  byte-identical, the first recovery's ``crash_recovery`` abort is not
  derived again (the log says it was closed), the one log is all there is
  (``results/``, no ``journal/``), and a ``refresh_key`` of the DL key
  converges with the restarted node;
* restart node 4 a third time, after the refresh: the daemon is handed the
  dealer keystore again, keeps the refreshed share it holds, and comes up.
* SIGTERM every daemon: each must exit by itself within the timeout.

Exit status 0 on success; prints the offending assertion otherwise.
"""

from __future__ import annotations

import asyncio
import subprocess
import tempfile
from pathlib import Path

from _daemons import deal_keys, spawn_daemon, stop_daemons, wait_for_ping

from repro.core.orchestration import derive_instance_id
from repro.errors import RpcError
from repro.serialization import hexlify
from repro.service.client import ThetacryptClient
from repro.telemetry import parse_text

PARTIES, THRESHOLD = 4, 1
BASE_PORT, RPC_BASE_PORT = 21700, 21800


async def wait_for_status(
    client: ThetacryptClient, instance_id: str, node_id: int, wanted: set[str]
) -> dict:
    for _ in range(150):
        try:
            status = await client.status(instance_id, node_id=node_id)
            if status["status"] in wanted:
                return status
        except RpcError:
            pass  # instance not created on that node yet
        await asyncio.sleep(0.1)
    raise AssertionError(
        f"instance {instance_id} never reached {wanted} on node {node_id}"
    )


async def drive(out: Path, daemons: list[subprocess.Popen]) -> None:
    addresses = {i: ("127.0.0.1", RPC_BASE_PORT + i) for i in range(1, PARTIES + 1)}
    client = ThetacryptClient(addresses)
    try:
        for node_id, daemon in enumerate(daemons, start=1):
            await wait_for_ping(client, node_id, daemon)
        print(f"  {PARTIES} daemons up (rpc ports {RPC_BASE_PORT + 1}..)")

        # One fully finalized operation, cached durably on node 4.
        done_data = b"finalized before the crash"
        signature = await client.sign("bls04", done_data)
        done_id = derive_instance_id("sign", "bls04", done_data, b"")
        await wait_for_status(client, done_id, 4, {"finished"})
        print("  pre-crash signature finalized on node 4")

        # One request in flight on node 4 only: quorum is unreachable, so
        # it is still pending when the process is killed.
        pending_data = b"in flight at the crash"
        pending_id = derive_instance_id("sign", "bls04", pending_data, b"")
        submit = asyncio.ensure_future(
            client.call(
                4, "sign", {"key_id": "bls04", "data": hexlify(pending_data)}
            )
        )
        await wait_for_status(client, pending_id, 4, {"created", "running"})

        # kill -9 mid-protocol.
        daemons[3].kill()
        daemons[3].wait(timeout=10)
        submit.cancel()
        await asyncio.gather(submit, return_exceptions=True)
        print("  node 4 SIGKILLed with one instance in flight")

        # Restart from the same data_dir.
        daemons[3] = spawn_daemon(out / "node4")
        await wait_for_ping(client, 4, daemons[3])

        stats = await client.node_stats(4)
        assert stats["keys"] == 2, f"keys not recovered: {stats['keys']}"
        recovery = stats["recovery"]
        assert recovery.get("keys") == 2, f"bad recovery stats: {recovery}"
        assert recovery.get("results", 0) >= 1, f"no cached results: {recovery}"
        assert recovery.get("aborted", 0) >= 1, f"no recovered aborts: {recovery}"
        assert stats["aborts"].get("crash_recovery", 0) >= 1, stats["aborts"]
        print(f"  recovery stats: {recovery}")

        # Duplicate of the finalized request: answered from the durable
        # result cache, byte-identical.
        replayed = await client.call(
            4, "sign", {"key_id": "bls04", "data": hexlify(done_data)}
        )
        assert replayed["result"] == hexlify(signature), (
            "cached result differs from the pre-crash signature"
        )
        print("  duplicate request served from the durable result cache")

        # The in-flight-at-crash instance is a structured abort.
        status = await client.status(pending_id, node_id=4)
        assert status["status"] == "failed", status
        assert status["abort_reason"] == "crash_recovery", status
        print("  in-flight instance reported as crash_recovery abort")

        # Recovery metrics in the Prometheus scrape.
        parsed = parse_text(await client.metrics(4))
        recovered = {
            dict(labels).get("outcome"): value
            for (name, labels), value in parsed.items()
            if name == "repro_recovery_instances_total"
        }
        runs = sum(
            value
            for (name, _), value in parsed.items()
            if name == "repro_recovery_runs_total"
        )
        assert runs >= 1, "repro_recovery_runs_total missing from scrape"
        assert recovered.get("aborted", 0) >= 1, recovered
        print(f"  scrape: recovery runs={runs:.0f}, instances={recovered}")

        # Liveness: the recovered node takes part in new protocol runs.
        after = b"signed after recovery"
        sig2 = await client.sign("bls04", after)
        assert await client.verify_signature("bls04", after, sig2)
        coin = await client.flip_coin("cks05", b"post-recovery coin")
        assert len(coin) == 32
        print("  cluster liveness after recovery confirmed")

        # A second restart replays the log the first recovery appended to.
        coin_id = derive_instance_id("coin", "cks05", b"post-recovery coin", b"")
        await wait_for_status(client, coin_id, 4, {"finished"})
        daemons[3].kill()
        daemons[3].wait(timeout=10)
        daemons[3] = spawn_daemon(out / "node4")
        await wait_for_ping(client, 4, daemons[3])
        recovery = (await client.node_stats(4))["recovery"]
        assert recovery.get("results", 0) >= 2, f"results lost: {recovery}"
        try:
            status = await client.status(pending_id, node_id=4)
        except RpcError:
            pass  # closed by the first recovery: a retry would run again
        else:
            raise AssertionError(f"crash_recovery abort derived twice: {status}")
        replayed = await client.call(
            4, "sign", {"key_id": "bls04", "data": hexlify(done_data)}
        )
        assert replayed["result"] == hexlify(signature), (
            "cached result changed across the second restart"
        )
        state = sorted(p.name for p in (out / "node4" / "data").iterdir())
        assert "results" in state and "journal" not in state, state
        print(f"  second restart: {recovery}, data_dir holds {state}")

        # Control plane after the restarts: the refresh epoch is named by
        # the key itself, so the restarted node derives the same instance.
        # (One throw-away request first: a peer's first frame on the TCP
        # connection the SIGKILL orphaned is lost before the reset is seen,
        # and a refresh deal is sent exactly once — ROADMAP item 1.)
        await client.flip_coin("cks05", b"reconnect after the second restart")
        await asyncio.sleep(0.5)
        group_key = await client.refresh_key("cks05")
        assert len(group_key) == 32
        coin2 = await client.flip_coin("cks05", b"post-refresh coin")
        assert len(coin2) == 32
        assert await client.flip_coin("cks05", b"post-recovery coin") == coin
        print("  refresh_key converged after the restarts")

        # The dealer keystore no longer matches the share node 4 holds;
        # the daemon must boot on the held one.
        refreshed_id = derive_instance_id("coin", "cks05", b"post-refresh coin", b"")
        await wait_for_status(client, refreshed_id, 4, {"finished"})
        daemons[3].kill()
        daemons[3].wait(timeout=10)
        daemons[3] = spawn_daemon(out / "node4")
        await wait_for_ping(client, 4, daemons[3])
        stats = await client.node_stats(4)
        assert stats["keys"] == 2, f"keys lost across the refresh: {stats['keys']}"
        print("  node 4 restarted from the dealer files after the refresh")
    finally:
        await client.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="recovery-smoke-") as tmp:
        out = Path(tmp)
        print(f"dealing keys for a ({THRESHOLD}, {PARTIES}) network ...")
        deal_keys(
            "--parties", str(PARTIES),
            "--threshold", str(THRESHOLD),
            "--schemes", "bls04,cks05",
            "--base-port", str(BASE_PORT),
            "--rpc-base-port", str(RPC_BASE_PORT),
            "--out", str(out),
            "--data-dir",
        )
        daemons = [spawn_daemon(out / f"node{i}") for i in range(1, PARTIES + 1)]
        try:
            asyncio.run(drive(out, daemons))
        finally:
            # The orphan check: every daemon must exit on SIGTERM by
            # itself; none may need a SIGKILL.
            assert not stop_daemons(daemons, timeout=10.0), (
                "a daemon survived SIGTERM"
            )
        print("all daemons exited cleanly after SIGTERM")
    print("recovery smoke OK")


if __name__ == "__main__":
    main()
