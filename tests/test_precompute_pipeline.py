"""The precomputed-share pipeline: pools, journal, memo staging, service wiring.

The pipeline (docs/performance.md, "Precompute pipeline") hides threshold
latency for *announced* requests: every node stages its own share — and,
eagerly, the whole protocol instance — ahead of demand, keyed by the same
deterministic instance id the real request derives.  These tests pin the
three load-bearing invariants:

* **bit identity** — a pooled share is byte-identical to the share the
  on-demand path would have produced (deterministic schemes), so pooling
  can never change a protocol outcome;
* **consume-once** — a staged entry is served at most once, ever, across
  crash-and-restart (the consumption is journaled before the payload is
  handed out);
* **graceful exhaustion** — unannounced requests and drained pools fall
  back to the on-demand path, visibly (``source="inline"`` counters).
"""

import asyncio

import pytest

from repro.core.orchestration.precompute import (
    PrecomputeConfig,
    PrecomputeJob,
    PrecomputeService,
    derive_instance_id,
)
from repro.core.protocols import (
    FrostProtocol,
    NonInteractiveProtocol,
    OperationRequest,
    make_operation,
)
from repro.core.protocols.frost import FrostPrecomputationPool
from repro.errors import ConfigurationError, ProtocolError, RpcError
from repro.schemes.kg20 import Kg20SignatureScheme
from repro.serialization import hexlify
from repro.service.cluster import LocalCluster
from repro.service.config import NodeConfig, make_local_configs
from repro.storage.pool_journal import PoolJournal
from repro.telemetry import MetricRegistry


def _operation(km, party_id, kind, data, label=b""):
    return make_operation(
        km.scheme,
        km.public_key,
        km.share_for(party_id),
        OperationRequest(kind, data, label),
    )


def _job(km, party_id, kind, data, label=b"", key_id="k"):
    return PrecomputeJob(
        instance_id=derive_instance_id(kind, key_id, data, label),
        key_id=key_id,
        kind=kind,
        data=data,
        label=label,
        operation_factory=lambda: _operation(km, party_id, kind, data, label),
        scheme=km.scheme,
    )


# ---------------------------------------------------------------------------
# Pool journal: durable consume-once ledger
# ---------------------------------------------------------------------------


class TestPoolJournal:
    def test_stage_then_replay_restores_unconsumed(self, tmp_path):
        journal = PoolJournal(tmp_path / "pool")
        seq_a = journal.stage("ins-a", "k", "decrypt", b"share-a")
        seq_b = journal.stage("ins-b", "k", "decrypt", b"share-b")
        journal.stage("ins-c", "k", "decrypt", b"share-c")
        journal.consume(seq_b)
        journal.close()

        reopened = PoolJournal(tmp_path / "pool")
        survivors = reopened.survivors
        assert [s.instance_id for s in survivors] == ["ins-a", "ins-c"]
        assert survivors[0].payload == b"share-a"
        assert survivors[0].seq == seq_a
        reopened.close()

    def test_consumed_entry_never_comes_back(self, tmp_path):
        journal = PoolJournal(tmp_path / "pool")
        seq = journal.stage("ins", "k", "sign", b"payload")
        journal.consume(seq)
        journal.close()
        # Two process lives later the entry must still be gone (the reload
        # compacts, so the second reopen reads the rewritten log).
        for _ in range(2):
            reopened = PoolJournal(tmp_path / "pool")
            assert reopened.survivors == []
            reopened.close()

    def test_volatile_entries_are_not_restored(self, tmp_path):
        journal = PoolJournal(tmp_path / "pool")
        journal.stage("nonce-batch", "k", "kg20-nonce", None)
        journal.stage("ins", "k", "decrypt", b"durable")
        journal.close()
        reopened = PoolJournal(tmp_path / "pool")
        assert [s.instance_id for s in reopened.survivors] == ["ins"]
        reopened.close()

    def test_sequence_numbers_stay_monotonic_across_restart(self, tmp_path):
        journal = PoolJournal(tmp_path / "pool")
        first = journal.stage("a", "k", "decrypt", b"a")
        journal.close()
        reopened = PoolJournal(tmp_path / "pool")
        second = reopened.stage("b", "k", "decrypt", b"b")
        assert second > first
        # Consuming the restored entry by its original seq still works.
        reopened.consume(first)
        reopened.close()
        final = PoolJournal(tmp_path / "pool")
        assert [s.instance_id for s in final.survivors] == ["b"]
        final.close()


# ---------------------------------------------------------------------------
# Precomputed material enters through the own-share memo / the constructor
# ---------------------------------------------------------------------------


class TestTriHooks:
    def test_noninteractive_stage_and_consume_once(self, keys_cks05):
        op = _operation(keys_cks05, 1, "coin", b"hook probe")
        payload = _operation(keys_cks05, 1, "coin", b"hook probe").create_own_share()
        op.supply_own_share(payload)
        created = []
        op.create_own_share = lambda: created.append(1)  # must not run
        protocol = NonInteractiveProtocol("coin-x", 1, op)
        first = protocol.do_round()
        assert len(first) == 1 and first[0].payload == payload
        assert not created
        assert protocol.progress() == (1, 2)
        # Used once: the single round cannot emit it again, and the slot
        # takes no second share.
        with pytest.raises(ProtocolError):
            protocol.do_round()
        with pytest.raises(ProtocolError):
            op.supply_own_share(payload)

    def test_noninteractive_rejects_staging_after_start(self, keys_cks05):
        op = _operation(keys_cks05, 1, "coin", b"late stage")
        protocol = NonInteractiveProtocol("coin-y", 1, op)
        (message,) = protocol.do_round()
        with pytest.raises(ProtocolError):
            op.supply_own_share(message.payload)
        assert protocol.progress() == (1, 2)

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
# Standalone service: refill, bit identity, consume-once across restart
# ---------------------------------------------------------------------------


async def _drained_service(config, jobs, journal_dir=None):
    service = PrecomputeService(
        config, MetricRegistry(), journal_dir=journal_dir
    )
    service.start()
    report = await service.warm(jobs)
    return service, report


class TestStandaloneService:
    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PrecomputeConfig(depth=0)

    def test_pooled_share_is_bit_identical_to_inline(self, keys_bls04):
        """Satellite: BLS04 share creation is deterministic, so the staged
        payload must match the on-demand path byte for byte."""

        async def scenario():
            data = b"bit identity probe"
            job = _job(keys_bls04, 1, "sign", data)
            service, report = await _drained_service(
                PrecomputeConfig(depth=4, eager=False), [job]
            )
            try:
                assert report["staged"] == 1
                pooled = service.take(job.instance_id)
            finally:
                await service.stop()
            inline = _operation(keys_bls04, 1, "sign", data).create_own_share()
            assert pooled == inline

        asyncio.run(scenario())

    def test_take_is_consume_once(self, keys_cks05):
        async def scenario():
            job = _job(keys_cks05, 1, "coin", b"once")
            service, report = await _drained_service(
                PrecomputeConfig(depth=2, eager=False), [job]
            )
            try:
                assert report["staged"] == 1
                assert service.take(job.instance_id) is not None
                assert service.take(job.instance_id) is None
                assert service.take("never-announced") is None
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_depth_limit_defers_excess_announces(self, keys_cks05):
        async def scenario():
            jobs = [
                _job(keys_cks05, 1, "coin", f"burst {i}".encode())
                for i in range(5)
            ]
            service, report = await _drained_service(
                PrecomputeConfig(depth=2, eager=False), jobs
            )
            try:
                assert report["staged"] == 2
                assert report["deferred"] == 3
                assert service.staged_count("k", "coin") == 2
                # A duplicate announce of a staged instance is refused too.
                again = await service.warm([jobs[0]])
                assert again["duplicate"] == 1
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_restart_never_reserves_consumed_entries(self, keys_cks05, tmp_path):
        """Satellite: SIGKILL between take() and the response must not
        resurrect the entry — consumption is journaled before serving."""

        async def scenario():
            consumed = _job(keys_cks05, 1, "coin", b"consumed before crash")
            survivor = _job(keys_cks05, 1, "coin", b"still pooled at crash")
            config = PrecomputeConfig(depth=4, eager=False)
            service, report = await _drained_service(
                config, [consumed, survivor], journal_dir=tmp_path / "pool"
            )
            assert report["staged"] == 2
            payload = service.take(consumed.instance_id)
            assert payload is not None
            # "kill -9": no clean stop, no journal close — the WAL on disk
            # is all the next life gets.
            service._task.cancel()  # noqa: SLF001 - simulate abrupt death
            await asyncio.gather(service._task, return_exceptions=True)

            reborn = PrecomputeService(
                config, MetricRegistry(), journal_dir=tmp_path / "pool"
            )
            try:
                assert reborn.stats()["restored"] == 1
                assert reborn.take(consumed.instance_id) is None
                restored = reborn.take(survivor.instance_id)
                assert restored is not None
                # The restored share is the exact bytes staged pre-crash.
                assert reborn.take(survivor.instance_id) is None
            finally:
                await reborn.stop()
            return payload, restored

        payload, restored = asyncio.run(scenario())
        assert payload != restored  # distinct requests, distinct shares


# ---------------------------------------------------------------------------
# Full service cluster: announce over RPC, pool/inline accounting, eager mode
# ---------------------------------------------------------------------------


@pytest.mark.integration
class TestPipelineService:
    def test_warm_pool_serves_from_pool(self, all_keys):
        """Announced request: staged share consumed, source=pool, result
        identical to what the on-demand path produces."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4, eager=False)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                secret = b"announced secret"
                ciphertext = await client.encrypt("sg02", secret, b"lbl")
                reports = await client.precompute("sg02", items=[ciphertext], label=b"lbl")
                assert all(r["staged"] == 1 for r in reports.values())
                assert all(
                    r["depth"].get("sg02/decrypt") == 1 for r in reports.values()
                )

                assert await client.decrypt("sg02", ciphertext, b"lbl") == secret
                for node in nodes:
                    served = node.stats()["precompute"]["served"]
                    assert served.get("decrypt/pool", 0) == 1
                    # The staged entry was consumed: the pool is empty again.
                    assert node.stats()["precompute"]["staged"] == {}
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
        their announce stages (a coin's kind is ``randomness``, not ``coin``)."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4, eager=False)
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
                    assert stats["staged"] == {}

        asyncio.run(scenario())

    def test_announce_for_a_known_instance_is_a_duplicate(self, all_keys):
        """Nobody will consume a share staged for an instance that is
        already running or already answered: the announce says so."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4, eager=False)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                await client.flip_coin("cks05", b"finished")
                reports = await client.precompute("cks05", items=[b"finished"])
                assert all(r == {"duplicate": 1, "depth": {}} for r in reports.values())
                # Live at node 1 only: no quorum, so it stays in flight.
                nodes[0].submit_request("coin", "cks05", b"in flight")
                report = await nodes[0].precompute_requests("cks05", [b"in flight"])
                assert report == {"duplicate": 1, "depth": {}}
                assert nodes[0].stats()["precompute"]["staged"] == {}

        asyncio.run(scenario())

    def test_exhausted_pool_falls_back_inline(self, all_keys):
        """Satellite: draining faster than refill degrades to the on-demand
        path with visible source=inline accounting, never an error."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4, eager=False)
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
                all_keys, precompute=PrecomputeConfig(depth=4, eager=True)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                secret = b"eagerly pipelined"
                ciphertext = await client.encrypt("sg02", secret, b"")
                await client.precompute("sg02", items=[ciphertext])
                instance_id = derive_instance_id("decrypt", "sg02", ciphertext, b"")
                # The announce alone drives the instance to completion.
                for _ in range(400):
                    if (
                        nodes[0].instances.known(instance_id)
                        and nodes[0].instances.record(instance_id).status.value
                        == "finished"
                    ):
                        break
                    await asyncio.sleep(0.01)
                assert nodes[0].instances.record(instance_id).status.value == "finished"

                assert await client.decrypt("sg02", ciphertext) == secret
                served = nodes[0].stats()["precompute"]["served"]
                assert served.get("decrypt/pool", 0) == 1
                # The eager submission itself is not client-visible traffic.
                assert sum(served.values()) == 1

        asyncio.run(scenario())

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

    def test_duplicate_request_leaves_a_staged_share_alone(self, all_keys):
        """Same rule for a staged non-interactive share: a request that
        folds into an existing record consumes nothing."""

        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4, eager=False)
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                secret = b"decrypted while its announce was queued"
                ciphertext = await client.encrypt("sg02", secret, b"")
                # The request overtakes its announce: refill is held while
                # the announce sits queued, the request runs on demand, and
                # only then is the share it was asked for staged.  (An
                # announce *after* the request would answer ``duplicate``.)
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
                assert all(r["staged"] == 1 for r in reports.values())
                record = nodes[0].submit_request("decrypt", "sg02", ciphertext)
                assert record.result == secret
                for node in nodes:
                    stats = node.stats()["precompute"]
                    assert stats["staged"] == {"sg02/decrypt": 1}
                    assert "decrypt/pool" not in stats["served"]

        asyncio.run(scenario())

    def test_kg20_announce_is_rejected_with_reason(self, all_keys):
        async def scenario():
            async with LocalCluster(
                all_keys, precompute=PrecomputeConfig(depth=4, eager=False)
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
                all_keys, precompute=PrecomputeConfig(depth=4, eager=False)
            ) as cluster:
                client = cluster.client
                with pytest.raises(RpcError):
                    await client.precompute("sg02")
                with pytest.raises(RpcError):
                    await client.precompute("sg02", count=2, items=[b"x"])

        asyncio.run(scenario())


class TestConfigPlumbing:
    def test_node_config_round_trips_precompute(self):
        config = make_local_configs(
            4, 1, precompute=PrecomputeConfig(depth=3, eager=False)
        )[0]
        clone = NodeConfig.from_json(config.to_json())
        assert clone.precompute == PrecomputeConfig(depth=3, eager=False)

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
