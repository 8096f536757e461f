"""The precompute pipeline: announce, run ahead, serve, and service wiring.

The pipeline (docs/performance.md, "Precompute pipeline") hides threshold
latency for *announced* requests: every node submits the announced
request's own protocol instance ahead of demand, keyed by the same
deterministic instance id the real request derives.  These tests pin the
load-bearing invariants:

* **bit identity** — a request served by the instance its announce ran is
  byte-identical to the on-demand result, so announcing can never change
  a protocol outcome;
* **nothing twice, nothing left** — a request that overtakes its announce
  runs on demand, the announce folds into it (``duplicate``), and no slot
  of the depth limit stays taken;
* **graceful exhaustion** — unannounced requests fall back to the
  on-demand path, visibly (``source="inline"`` counters).
"""

import asyncio

import pytest

from repro.core.orchestration.precompute import (
    PrecomputeConfig,
    PrecomputeJob,
    PrecomputeService,
    derive_instance_id,
)
from repro.core.protocols import FrostProtocol
from repro.core.protocols.frost import FrostPrecomputationPool
from repro.errors import ConfigurationError, ProtocolError, RpcError
from repro.schemes.kg20 import Kg20Signature, Kg20SignatureScheme
from repro.service.cluster import LocalCluster
from repro.service.config import NodeConfig, make_local_configs
from repro.telemetry import MetricRegistry


def _job(kind, data, key_id="k"):
    return PrecomputeJob(
        derive_instance_id(kind, key_id, data), key_id, kind, data, b""
    )


# ---------------------------------------------------------------------------
# KG20 nonce material enters through the protocol's constructor
# ---------------------------------------------------------------------------


class TestTriHooks:
    def test_frost_nonce_staging_skips_round_zero(self, keys_kg20):
        scheme = Kg20SignatureScheme()
        shares = [keys_kg20.share_for(i) for i in range(1, 5)]
        batch = [scheme.commit(share) for share in shares]
        pool = FrostPrecomputationPool()
        pool.add_batch([batch[0][0]], [[commitment for _, commitment in batch]])
        protocol = FrostProtocol("frost-x", shares[0], b"staged msg", pool=pool)
        assert protocol.round == 1
        messages = protocol.do_round()
        assert messages[0].round == 1
        # The signing round runs once; there is no way back to round 0.
        with pytest.raises(ProtocolError):
            protocol.do_round()

    def test_frost_ctor_pool_routes_through_staging(self, keys_kg20):
        scheme = Kg20SignatureScheme()
        shares = [keys_kg20.share_for(i) for i in range(1, 5)]
        per_party = [scheme.precompute(share, 1) for share in shares]
        pool = FrostPrecomputationPool()
        pool.add_batch(
            [per_party[0][0][0]],
            [[pairs[0][1] for pairs in per_party]],
        )
        protocol = FrostProtocol("frost-y", shares[0], b"ctor msg", pool=pool)
        assert protocol.round == 1
        assert pool.available == 0
        # A dry pool leaves the protocol on the two-round path.
        dry = FrostProtocol("frost-z", shares[0], b"ctor msg", pool=pool)
        assert dry.round == 0 and dry.do_round()[0].round == 0


# ---------------------------------------------------------------------------
# Standalone service: queue, depth limit, outcomes, shutdown
# ---------------------------------------------------------------------------


class _Submissions:
    """The node side of a standalone service: every submission is one
    future the test resolves, and a submitted id is known from then on."""

    def __init__(self, refuse: Exception | None = None):
        self.futures: dict[str, asyncio.Future] = {}
        self._refuse = refuse

    def known(self, instance_id: str) -> bool:
        return instance_id in self.futures

    def submit(self, kind, key_id, data, label):
        if self._refuse is not None:
            raise self._refuse
        future = asyncio.get_running_loop().create_future()
        self.futures[derive_instance_id(kind, key_id, data, label)] = future
        return future

    async def wait_for(self, count: int) -> None:
        for _ in range(400):
            if len(self.futures) >= count:
                return
            await asyncio.sleep(0.005)
        raise AssertionError(f"{len(self.futures)} of {count} submitted")


def _service(depth, submissions):
    service = PrecomputeService(
        PrecomputeConfig(depth=depth),
        MetricRegistry(),
        known_probe=submissions.known,
        submit=submissions.submit,
    )
    service.start()
    return service


class TestStandaloneService:
    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PrecomputeConfig(depth=0)

    def test_depth_limit_defers_excess_announces(self):
        async def scenario():
            submissions = _Submissions()
            service = _service(2, submissions)
            try:
                jobs = [_job("coin", f"burst {i}".encode()) for i in range(5)]
                futures = [service.announce(job) for job in jobs]
                assert [f.result() for f in futures[2:]] == ["deferred"] * 3
                # A duplicate announce of a queued request is refused too.
                assert service.announce(jobs[0]).result() == "duplicate"
                await submissions.wait_for(2)
                assert service.stats()["depth"] == {"k/coin": 2}
                assert service.stats()["pipelined_active"] == 2
                for future in submissions.futures.values():
                    future.set_result(b"done")
                assert await asyncio.gather(*futures[:2]) == ["staged"] * 2
                # Finished instances free their slots; the node knows them.
                assert service.stats()["depth"] == {}
                assert service.announce(jobs[1]).result() == "duplicate"
                assert service.stats()["refills"] == {
                    "coin/ok": 2, "coin/deferred": 3
                }
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_an_aborted_or_refused_instance_reports_failed(self):
        async def scenario():
            submissions = _Submissions()
            service = _service(2, submissions)
            refusing = _service(2, _Submissions(RpcError("node overloaded")))
            try:
                aborted = service.announce(_job("decrypt", b"hostile"))
                await submissions.wait_for(1)
                (future,) = submissions.futures.values()
                future.set_exception(ProtocolError("byzantine_detected"))
                assert (await aborted).startswith("failed: ")
                refused = await refusing.warm([_job("decrypt", b"shed")])
                assert refused == {"failed": 1, "depth": {}}
                for each in (service, refusing):
                    assert each.stats()["depth"] == {}
                    assert each.stats()["refills"] == {"decrypt/error": 1}
            finally:
                await service.stop()
                await refusing.stop()

        asyncio.run(scenario())

    def test_a_waiter_that_went_away_still_frees_the_slot(self):
        """The RPC that announced may be gone (client disconnect): the
        instance still runs, and its depth slot is still given back."""

        async def scenario():
            submissions = _Submissions()
            service = _service(1, submissions)
            try:
                service.announce(_job("coin", b"orphaned")).cancel()
                await submissions.wait_for(1)
                (future,) = submissions.futures.values()
                future.set_result(b"done")
                for _ in range(100):
                    if not service.stats()["depth"]:
                        break
                    await asyncio.sleep(0)
                assert service.stats()["depth"] == {}
                assert service.announce(_job("coin", b"next")).done() is False
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_stop_settles_every_announce(self):
        async def scenario():
            submissions = _Submissions()
            service = _service(8, submissions)
            futures = [
                service.announce(_job("sign", f"m{i}".encode())) for i in range(6)
            ]
            await submissions.wait_for(4)  # the window: four run, two queue
            await service.stop()
            assert [f.result() for f in futures] == ["cancelled"] * 6
            assert service.stats()["depth"] == {}

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Full service cluster: announce over RPC, pool/inline accounting
# ---------------------------------------------------------------------------


@pytest.mark.integration
class TestPipelineService:
    def test_warm_pool_serves_from_pool(self, all_keys):
        """Announced request: its instance ran before the request came, and
        the request folds into it (source=pool)."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                secret = b"announced secret"
                ciphertext = await client.encrypt("sg02", secret, b"lbl")
                reports = await client.precompute("sg02", items=[ciphertext], label=b"lbl")
                # The reply comes once the instance ran: nothing is pending.
                assert all(
                    r == {"staged": 1, "depth": {}} for r in reports.values()
                ), reports

                assert await client.decrypt("sg02", ciphertext, b"lbl") == secret
                for node in nodes:
                    served = node.stats()["precompute"]["served"]
                    assert served.get("decrypt/pool", 0) == 1
                    record = node.instances.record(
                        derive_instance_id("decrypt", "sg02", ciphertext, b"lbl")
                    )
                    assert "precomputed" in [e.name for e in record.trace.events]
                # The pool depth gauge and served counter are in the node's
                # Prometheus exposition.
                text = nodes[0].render_metrics()
                assert "repro_precompute_pool_depth" in text
                assert 'repro_precompute_served_total{op="decrypt",source="pool"}' in text

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "key_id,kind", [("sg02", "decrypt"), ("bls04", "sign"), ("cks05", "coin")]
    )
    def test_announce_serves_every_scheme_kind(self, all_keys, key_id, kind):
        """A cipher, a signature and a coin key each map onto the operation
        their announce runs (a coin's kind is ``randomness``, not ``coin``)."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                data = b"announced " + kind.encode()
                if kind == "decrypt":
                    data = await client.encrypt(key_id, data, b"")
                reports = await client.precompute(key_id, items=[data])
                assert all(r["staged"] == 1 for r in reports.values())
                await asyncio.gather(
                    *(node.run_request(kind, key_id, data) for node in nodes)
                )
                for node in nodes:
                    stats = node.stats()["precompute"]
                    assert stats["served"] == {f"{kind}/pool": 1}
                    assert stats["depth"] == {}

        asyncio.run(scenario())

    def test_announce_for_a_known_instance_is_a_duplicate(self, all_keys):
        """An instance that is already running or already answered is not
        run again: the announce says so."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                await client.flip_coin("cks05", b"finished")
                reports = await client.precompute("cks05", items=[b"finished"])
                assert all(r == {"duplicate": 1, "depth": {}} for r in reports.values())
                # Live at node 1 only: no quorum, so it stays in flight.
                nodes[0].submit_request("coin", "cks05", b"in flight")
                report = await nodes[0].precompute_requests("cks05", [b"in flight"])
                assert report == {"duplicate": 1, "depth": {}}
                assert nodes[0].stats()["precompute"]["depth"] == {}

        asyncio.run(scenario())

    def test_exhausted_pool_falls_back_inline(self, all_keys):
        """Requests nobody announced take the on-demand path, with visible
        source=inline accounting, never an error."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                announced = await client.encrypt("sg02", b"pooled one", b"")
                cold_a = await client.encrypt("sg02", b"cold one", b"")
                cold_b = await client.encrypt("sg02", b"cold two", b"")
                await client.precompute("sg02", items=[announced])

                assert await client.decrypt("sg02", announced) == b"pooled one"
                assert await client.decrypt("sg02", cold_a) == b"cold one"
                assert await client.decrypt("sg02", cold_b) == b"cold two"

                served = nodes[0].stats()["precompute"]["served"]
                assert served.get("decrypt/pool", 0) == 1
                assert served.get("decrypt/inline", 0) == 2

        asyncio.run(scenario())

    def test_eager_pipelining_runs_ahead_of_demand(self, all_keys):
        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                secret = b"eagerly pipelined"
                ciphertext = await client.encrypt("sg02", secret, b"")
                await client.precompute("sg02", items=[ciphertext])
                instance_id = derive_instance_id("decrypt", "sg02", ciphertext, b"")
                # The announce alone drove the instance to completion.
                for node in nodes:
                    assert node.instances.record(instance_id).status.value == "finished"

                assert await client.decrypt("sg02", ciphertext) == secret
                served = nodes[0].stats()["precompute"]["served"]
                assert served.get("decrypt/pool", 0) == 1
                # The pipeline's own submission is not client-visible traffic.
                assert sum(served.values()) == 1

        asyncio.run(scenario())

    def test_announced_result_is_bit_identical_to_inline(self, all_keys):
        """BLS04 signing is deterministic: the signature an announce ran
        ahead must be the one the on-demand path produces."""
        message = b"bit identity probe"

        async def sign(precompute):
            async with LocalCluster(
                {"bls04": all_keys["bls04"]}, precompute=precompute
            ) as cluster:
                if precompute is not None:
                    reports = await cluster.client.precompute("bls04", items=[message])
                    assert all(r["staged"] == 1 for r in reports.values())
                signature = await cluster.client.sign("bls04", message)
                served = cluster.nodes[0].stats()["precompute"]["served"]
                return signature, served

        announced, served = asyncio.run(sign(PrecomputeConfig(depth=1)))
        assert served == {"sign/pool": 1}
        inline, _ = asyncio.run(sign(None))
        assert announced == inline

    def test_duplicate_kg20_request_burns_no_nonce_set(self, all_keys):
        """A client retry to one node folds into the finished record; it
        must not pop that node's next nonce set, or the pools desynchronise
        and the next signature fails on every node."""

        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                nodes, client = cluster.nodes, cluster.client
                pre = await client.precompute("kg20", 3)
                assert all(r["available"] == 3 for r in pre.values())
                await asyncio.gather(
                    *(node.run_request("sign", "kg20", b"m1") for node in nodes)
                )
                record = nodes[0].submit_request("sign", "kg20", b"m1")
                assert record.status.value == "finished"
                depths = [n.stats()["precompute"]["frost"]["kg20"] for n in nodes]
                assert depths == [2, 2, 2, 2]
                signature = await client.sign("kg20", b"m2")
                assert await client.verify_signature("kg20", b"m2", signature)
                assert all(n.stats()["aborts"] == {} for n in nodes)

        asyncio.run(scenario())

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP 21: a node pairs a request with the nonce set it pops first",
    )
    def test_precomputed_kg20_signs_requests_in_any_arrival_order(self, keys_kg20):
        """Nodes 1-2 get X then Y, nodes 3-4 get Y then X.  The pool is
        FIFO, so nodes 1-2 sign X with the first commitment list and nodes
        3-4 with the second: every share of both signatures fails its check
        and names an honest node.  The same orders on an empty pool finish."""
        first, second = b"X", b"Y"
        orders = {1: (first, second), 2: (first, second),
                  3: (second, first), 4: (second, first)}

        async def scenario():
            async with LocalCluster({"kg20": keys_kg20}) as cluster:
                await cluster.client.precompute("kg20", 2)
                runs = [
                    (message, node.submit_request("sign", "kg20", message), node)
                    for node in cluster.nodes
                    for message in orders[node.config.node_id]
                ]
                results = await asyncio.gather(
                    *(node.instances.result(record) for _, record, node in runs),
                    return_exceptions=True,
                )
                return [(message, result) for (message, _, _), result in zip(runs, results)]

        scheme = Kg20SignatureScheme()
        public = keys_kg20.public_key
        for message, result in asyncio.run(scenario()):
            assert isinstance(result, bytes), (message, result)
            scheme.verify(public, message, Kg20Signature.from_bytes(result, public.group))

    def test_overtaken_announce_leaves_nothing_behind(self, all_keys):
        """A request that runs while its announce is still queued is served
        on demand; the announce then folds into it, computes nothing, and
        gives its depth slot back."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=1)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                secret = b"decrypted while its announce was queued"
                ciphertext = await client.encrypt("sg02", secret, b"")
                # Hold the pipeline while the announce sits queued, run the
                # request on demand, then let the pipeline go.
                gate = asyncio.Event()
                for node in nodes:
                    node._precompute._pace = gate.wait
                announce = asyncio.ensure_future(
                    client.precompute("sg02", items=[ciphertext])
                )
                for _ in range(400):
                    if all(node._precompute._pending_ids for node in nodes):
                        break
                    await asyncio.sleep(0.01)
                await asyncio.gather(
                    *(node.run_request("decrypt", "sg02", ciphertext) for node in nodes)
                )
                gate.set()
                reports = await announce
                assert all(
                    r == {"duplicate": 1, "depth": {}} for r in reports.values()
                ), reports
                for node in nodes:
                    assert node.stats()["precompute"]["served"] == {
                        "decrypt/inline": 1
                    }
                # At depth 1, a slot left taken would defer every announce.
                fresh = await client.encrypt("sg02", b"announced later", b"")
                reports = await client.precompute("sg02", items=[fresh])
                assert all(
                    r == {"staged": 1, "depth": {}} for r in reports.values()
                ), reports

        asyncio.run(scenario())

    def test_kg20_announce_is_rejected_with_reason(self, all_keys):
        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4)
            ) as cluster:
                client = cluster.client
                results = await client.precompute("kg20", items=[b"message"])
                for result in results.values():
                    assert isinstance(result, RpcError)
                    assert getattr(result, "reason", None) == "precompute_kind"
                # The count-based kg20 preprocessing still works alongside.
                pre = await client.precompute("kg20", 2)
                assert all(r["available"] == 2 for r in pre.values())

        asyncio.run(scenario())

    def test_disabled_pipeline_keeps_on_demand_semantics(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                nodes, client = cluster.nodes, cluster.client
                results = await client.precompute("sg02", items=[b"x"])
                for result in results.values():
                    assert isinstance(result, RpcError)
                    assert getattr(result, "reason", None) == "precompute_disabled"
                # kg20 nonce pools live in the service even when the
                # announce pipeline is off.
                pre = await client.precompute("kg20", 2)
                assert all(r["available"] == 2 for r in pre.values())
                sig = await client.sign("kg20", b"pooled while disabled")
                assert await client.verify_signature(
                    "kg20", b"pooled while disabled", sig
                )
                assert nodes[0].stats()["precompute"]["enabled"] is False

        asyncio.run(scenario())

    def test_client_rejects_ambiguous_precompute_call(self, all_keys):
        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4)
            ) as cluster:
                client = cluster.client
                with pytest.raises(RpcError):
                    await client.precompute("sg02")
                with pytest.raises(RpcError):
                    await client.precompute("sg02", count=2, items=[b"x"])

        asyncio.run(scenario())


class TestConfigPlumbing:
    def test_node_config_round_trips_precompute(self):
        config = make_local_configs(4, 1, precompute=PrecomputeConfig(depth=3))[0]
        clone = NodeConfig.from_json(config.to_json())
        assert clone.precompute == PrecomputeConfig(depth=3)

    def test_daemon_flag_overrides_config(self, tmp_path):
        from repro.service.daemon import load_node
        from repro.schemes.keystore import keystore_to_json

        # A 1-of-2 config parses standalone; transport stays tcp (unstarted).
        node_config = NodeConfig(node_id=1, parties=2, threshold=0)
        config_path = tmp_path / "config.json"
        config_path.write_text(node_config.to_json())
        keystore_path = tmp_path / "keystore.json"
        keystore_path.write_text(keystore_to_json({}))

        node = load_node(str(config_path), str(keystore_path), precompute_depth=5)
        assert node.config.precompute == PrecomputeConfig(depth=5)
        disabled = load_node(str(config_path), str(keystore_path), precompute_depth=0)
        assert disabled.config.precompute is None
