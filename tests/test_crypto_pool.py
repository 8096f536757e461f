"""Crypto worker-pool offload: tasks, pool degradation, cluster equivalence.

The pool's contract (docs/performance.md) is that offload is a pure
performance change: pooled and inline runs produce identical protocol
results, and *any* infrastructure failure — disabled pool, dead worker,
unpicklable task — degrades to inline execution instead of failing the
instance.  These tests exercise each degradation edge explicitly, plus
the workers=0 vs pooled equivalence across every scheme.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, ThetacryptError
from repro.network.local import LocalHub
from repro.schemes import bls04
from repro.schemes.keystore import export_key_share, export_public_key
from repro.service.config import NodeConfig, make_local_configs
from repro.service.node import ThetacryptNode
from repro.telemetry import MetricRegistry, summarize
from repro.telemetry.instruments import EventLoopLagSampler
from repro.workers import CryptoPool, CryptoPoolUnavailable, OffloadPolicy
from repro.workers import tasks as pool_tasks


def _spec(material, kind: str, data: bytes, party: int = 1) -> dict:
    scheme = material.scheme
    return {
        "scheme": scheme,
        "public": export_public_key(scheme, material.public_key),
        "kind": kind,
        "data": data,
        "share": export_key_share(scheme, material.share_for(party)),
    }


class TestWorkerTasks:
    """The task functions run in-process here: pure logic, no pool."""

    def test_create_and_verify_round_trip(self, keys_bls04):
        message = b"pool task round trip"
        payloads = [
            pool_tasks.create_share(_spec(keys_bls04, "sign", message, party))
            for party in (1, 2, 3)
        ]
        verify = _spec(keys_bls04, "sign", message)
        verify.pop("share")
        verdicts = pool_tasks.verify_shares(verify, payloads)
        assert verdicts == [None, None, None]

    def test_verdicts_identify_culprits(self, keys_bls04):
        message = b"culprit identification"
        good = pool_tasks.create_share(_spec(keys_bls04, "sign", message, 1))
        # A structurally valid share computed over a *different* message:
        # decodes fine, fails verification.
        wrong = pool_tasks.create_share(_spec(keys_bls04, "sign", b"other", 2))
        verify = _spec(keys_bls04, "sign", message)
        verify.pop("share")
        verdicts = pool_tasks.verify_shares(
            verify, [good, b"\x00garbage", wrong]
        )
        assert verdicts[0] is None
        assert isinstance(verdicts[1], str)
        assert isinstance(verdicts[2], str)

    def test_verdicts_per_scheme(self, all_keys):
        requests = {
            "sg02": ("decrypt", None),
            "bz03": ("decrypt", None),
            "sh00": ("sign", b"sh00 pool msg"),
            "bls04": ("sign", b"bls04 pool msg"),
            "cks05": ("coin", b"pool coin"),
        }
        from repro.schemes.base import get_scheme

        for scheme, (kind, data) in requests.items():
            material = all_keys[scheme]
            if kind == "decrypt":
                data = get_scheme(scheme).encrypt(
                    material.public_key, b"pool secret", b"label"
                ).to_bytes()
            payloads = [
                pool_tasks.create_share(_spec(material, kind, data, party))
                for party in (1, 2)
            ]
            verify = _spec(material, kind, data)
            verify.pop("share")
            verdicts = pool_tasks.verify_shares(verify, payloads)
            assert verdicts == [None, None], f"{scheme}: {verdicts}"
            bad = pool_tasks.verify_shares(verify, [payloads[0], b"junk"])
            assert bad[0] is None and isinstance(bad[1], str), f"{scheme}: {bad}"

    def test_create_share_bad_request_raises_crypto_error(self, keys_sg02):
        """A malformed request is a *cryptographic* failure: it must raise
        a ThetacryptError (which the pool propagates as outcome=error),
        not an infrastructure CryptoPoolUnavailable."""
        spec = _spec(keys_sg02, "decrypt", b"not a ciphertext")
        with pytest.raises(ThetacryptError):
            pool_tasks.create_share(spec)


class TestPoolDegradation:
    def test_disabled_pool_raises_unavailable(self):
        registry = MetricRegistry()
        pool = CryptoPool(0, registry=registry)
        assert not pool.enabled

        async def scenario():
            with pytest.raises(CryptoPoolUnavailable):
                await pool.run("health", pool_tasks.worker_health)

        asyncio.run(scenario())
        assert pool.stats()["fallbacks"] == 1

    def test_closed_pool_raises_unavailable(self):
        pool = CryptoPool(1, registry=MetricRegistry())
        pool.close_sync()

        async def scenario():
            with pytest.raises(CryptoPoolUnavailable):
                await pool.run("health", pool_tasks.worker_health)

        asyncio.run(scenario())
        assert not pool.enabled

    def test_unpicklable_task_falls_back_pool_survives(self):
        pool = CryptoPool(1, registry=MetricRegistry())

        async def scenario():
            with pytest.raises(CryptoPoolUnavailable):
                await pool.run("bad", lambda: 1)
            # The failure did not poison the pool: a real task still runs.
            health = await pool.run("health", pool_tasks.worker_health)
            # warm_worker built the fixed-base tables in the worker.
            assert health["precompute"]["tables"] >= 1
            await pool.close()

        asyncio.run(scenario())
        stats = pool.stats()
        assert stats["fallbacks"] == 1 and stats["tasks_ok"] == 1

    def test_submit_racing_a_worker_death_does_not_orphan_the_task(self):
        """CPython fails the pending items and retires its manager thread
        without the lock submit() holds; a task enqueued right after that
        sweep would be awaited forever (the hang this suite used to hit)."""
        import concurrent.futures

        class SweptExecutor:
            _broken = "A child process terminated abruptly"

            def submit(self, fn, *args, **kwargs):
                return concurrent.futures.Future()  # nobody will resolve it

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        pool = CryptoPool(1, registry=MetricRegistry())
        pool._executor = SweptExecutor()

        async def scenario():
            with pytest.raises(CryptoPoolUnavailable):
                await asyncio.wait_for(
                    pool.run("health", pool_tasks.worker_health), 5.0
                )

        asyncio.run(scenario())
        stats = pool.stats()
        assert stats["crashes"] == 1 and stats["fallbacks"] == 1
        pool.close_sync()

    @pytest.mark.slow
    def test_worker_killed_then_pool_restarts(self):
        pool = CryptoPool(1, registry=MetricRegistry())

        async def scenario():
            health = await pool.run("health", pool_tasks.worker_health)
            first_pid = health["pid"]
            os.kill(first_pid, signal.SIGKILL)
            # The dying worker surfaces as CryptoPoolUnavailable on some
            # subsequent task (the breakage can take one submit to notice).
            deadline = time.monotonic() + 30.0
            saw_crash = False
            while not saw_crash and time.monotonic() < deadline:
                try:
                    await pool.run("health", pool_tasks.worker_health)
                except CryptoPoolUnavailable:
                    saw_crash = True
            assert saw_crash, "SIGKILLed worker never surfaced as a crash"
            # Self-healing: the next task spawns a fresh worker.
            health = await pool.run("health", pool_tasks.worker_health)
            assert health["pid"] != first_pid
            await pool.close()

        asyncio.run(scenario())
        stats = pool.stats()
        assert stats["crashes"] >= 1
        assert stats["restarts"] >= 1
        assert stats["tasks_ok"] >= 2


def _cluster(all_keys, crypto_pool=None, parties=4, threshold=1):
    configs = make_local_configs(
        parties, threshold, transport="local", rpc_base_port=0
    )
    hub = LocalHub()
    nodes = []
    for config in configs:
        node = ThetacryptNode(
            config, transport=hub.endpoint(config.node_id), crypto_pool=crypto_pool
        )
        for key_id, material in all_keys.items():
            node.install_key(
                key_id,
                material.scheme,
                material.public_key,
                material.share_for(config.node_id),
            )
        nodes.append(node)
    return nodes


async def _run_all_kinds(nodes, all_keys) -> dict[str, bytes]:
    """One request per scheme, cluster-wide; returns scheme -> result."""
    from repro.schemes.base import get_scheme

    for node in nodes:
        await node.start()
    results = {}
    try:
        for scheme in ("sg02", "bz03"):
            ciphertext = get_scheme(scheme).encrypt(
                all_keys[scheme].public_key, b"equivalence secret", b"label"
            ).to_bytes()
            gathered = await asyncio.gather(
                *(
                    node.run_request("decrypt", scheme, ciphertext, b"label")
                    for node in nodes
                )
            )
            assert len(set(gathered)) == 1
            results[scheme] = gathered[0]
        for scheme in ("sh00", "bls04", "kg20"):
            gathered = await asyncio.gather(
                *(
                    node.run_request("sign", scheme, b"equivalence message")
                    for node in nodes
                )
            )
            assert len(set(gathered)) == 1
            results[scheme] = gathered[0]
        gathered = await asyncio.gather(
            *(node.run_request("coin", "cks05", b"equivalence coin") for node in nodes)
        )
        assert len(set(gathered)) == 1
        results["cks05"] = gathered[0]
    finally:
        for node in nodes:
            await node.stop()
    return results


@pytest.mark.integration
class TestClusterEquivalence:
    @pytest.mark.slow
    def test_pooled_matches_inline_all_schemes(self, all_keys):
        """crypto_workers=0 and pooled runs agree for every scheme.

        The five deterministic schemes must be *bit-identical*; kg20 signs
        with random nonces, so its two runs are each internally consistent
        and both verify instead.
        """

        async def scenario():
            inline = await _run_all_kinds(_cluster(all_keys), all_keys)
            # mode="always": this is an equivalence test, so the pool must
            # actually run, whatever this host's core count would decide.
            pool = CryptoPool(
                2, registry=MetricRegistry(), policy=OffloadPolicy(mode="always")
            )
            try:
                pooled = await _run_all_kinds(
                    _cluster(all_keys, crypto_pool=pool), all_keys
                )
                stats = pool.stats()
            finally:
                await pool.close()
            return inline, pooled, stats

        inline, pooled, stats = asyncio.run(scenario())
        for scheme in ("sg02", "bz03", "sh00", "bls04", "cks05"):
            assert inline[scheme] == pooled[scheme], (
                f"{scheme}: pooled result differs from inline"
            )
        public = all_keys["kg20"].public_key
        for result in (inline["kg20"], pooled["kg20"]):
            from repro.schemes import kg20
            from repro.schemes.base import get_scheme

            signature = kg20.Kg20Signature.from_bytes(result, public.group)
            # verify() raises on an invalid signature.
            get_scheme("kg20").verify(public, b"equivalence message", signature)
        # The pooled run genuinely offloaded (non-interactive schemes only;
        # kg20 stays inline by design) and nothing degraded.
        assert stats["tasks_ok"] > 0
        assert stats["fallbacks"] == 0

    def test_cluster_with_broken_pool_still_finalizes(self, keys_bls04):
        """A pool whose workers keep dying must not cost liveness."""

        class AlwaysBrokenPool(CryptoPool):
            async def run(self, op, fn, *args):
                self._count(op, "fallback")
                raise CryptoPoolUnavailable("induced breakage")

        pool = AlwaysBrokenPool(
            2, registry=MetricRegistry(), policy=OffloadPolicy(mode="always")
        )

        async def scenario():
            nodes = _cluster({"bls04": keys_bls04}, crypto_pool=pool)
            for node in nodes:
                await node.start()
            try:
                gathered = await asyncio.gather(
                    *(
                        node.run_request("sign", "bls04", b"broken pool msg")
                        for node in nodes
                    )
                )
            finally:
                for node in nodes:
                    await node.stop()
            return gathered

        gathered = asyncio.run(scenario())
        assert len(set(gathered)) == 1
        from repro.schemes.base import get_scheme

        signature = bls04.Bls04Signature.from_bytes(gathered[0])
        # verify() raises on an invalid signature.
        get_scheme("bls04").verify(keys_bls04.public_key, b"broken pool msg", signature)
        assert pool.stats()["fallbacks"] > 0


class TestServiceWiring:
    def test_config_validation_and_round_trip(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(node_id=1, parties=4, threshold=1, crypto_workers=-1)
        config = make_local_configs(4, 1, crypto_workers=3)[0]
        assert NodeConfig.from_json(config.to_json()).crypto_workers == 3

    def test_node_stats_expose_pool_and_lag(self, keys_cks05):
        async def scenario():
            configs = make_local_configs(
                4,
                1,
                transport="local",
                rpc_base_port=0,
                crypto_workers=1,
                # Force offload so the pool assertions below hold on any
                # host, 1-core CI included.
                offload_policy="always",
            )
            hub = LocalHub()
            nodes = []
            for config in configs:
                node = ThetacryptNode(config, transport=hub.endpoint(config.node_id))
                node.install_key(
                    "cks05",
                    "cks05",
                    keys_cks05.public_key,
                    keys_cks05.share_for(config.node_id),
                )
                nodes.append(node)
            pids = []
            try:
                for node in nodes:
                    await node.start()
                await asyncio.gather(
                    *(node.run_request("coin", "cks05", b"stats coin") for node in nodes)
                )
                stats = nodes[0].stats()
                pool = stats["crypto_pool"]
                assert pool["enabled"] and pool["workers"] == 1
                assert pool["tasks_ok"] >= 1 and pool["fallbacks"] == 0
                assert "event_loop_lag" in stats
                pids = [p for node in nodes for p in node.crypto_pool.worker_pids]
                assert pids, "owned pools never spawned workers"
            finally:
                for node in nodes:
                    await node.stop()
            # node.stop() must join owned workers — no orphans.
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

        asyncio.run(scenario())

    def test_lag_sampler_records(self):
        async def scenario():
            registry = MetricRegistry()
            sampler = EventLoopLagSampler(registry, interval=0.01)
            sampler.start()
            # A deliberate loop stall the sampler must observe.
            await asyncio.sleep(0.03)
            time.sleep(0.08)
            await asyncio.sleep(0.03)
            await sampler.stop()
            summary = summarize(registry.get("repro_event_loop_lag_seconds"))
            assert summary["count"] >= 2
            assert summary["max"] >= 0.05

        asyncio.run(scenario())
