"""Service layer: config, node wiring, both RPC endpoint families, faults."""

import asyncio
import multiprocessing

import pytest

from repro.core.orchestration import derive_instance_id
from repro.errors import ConfigurationError, RpcError
from repro.service.client import ThetacryptClient
from repro.service.cluster import LocalCluster
from repro.service.config import NodeConfig, PeerConfig, make_local_configs
from repro.telemetry import default_registry


class TestConfig:
    def test_make_local_configs_consistent(self):
        configs = make_local_configs(4, 1)
        assert len(configs) == 4
        assert all(c.parties == 4 and c.threshold == 1 for c in configs)
        assert configs[0].peer_map() == {
            2: ("127.0.0.1", 17002),
            3: ("127.0.0.1", 17003),
            4: ("127.0.0.1", 17004),
        }

    def test_json_round_trip(self):
        config = make_local_configs(4, 1)[2]
        restored = NodeConfig.from_json(config.to_json())
        assert restored == config

    def test_invalid_node_id(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(node_id=5, parties=4, threshold=1)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(node_id=1, parties=4, threshold=4)

    def test_invalid_transport(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(node_id=1, parties=4, threshold=1, transport="carrier-pigeon")

    def test_peer_map_excludes_self(self):
        peers = (PeerConfig(1, "h", 1), PeerConfig(2, "h", 2))
        config = NodeConfig(node_id=1, parties=2, threshold=1, peers=peers)
        assert 1 not in config.peer_map()


class TestInstanceIdDerivation:
    def test_deterministic(self):
        a = derive_instance_id("sign", "k", b"data", b"l")
        b = derive_instance_id("sign", "k", b"data", b"l")
        assert a == b

    def test_distinct_inputs(self):
        base = derive_instance_id("sign", "k", b"data", b"l")
        assert derive_instance_id("sign", "k", b"data2", b"l") != base
        assert derive_instance_id("sign", "k2", b"data", b"l") != base
        assert derive_instance_id("decrypt", "k", b"data", b"l") != base
        assert derive_instance_id("sign", "k", b"data", b"l2") != base

    def test_no_length_extension_ambiguity(self):
        # (label="ab", data="c") must differ from (label="a", data="bc").
        assert derive_instance_id("sign", "k", b"c", b"ab") != derive_instance_id(
            "sign", "k", b"bc", b"a"
        )


class TestLocalCluster:
    def test_exit_stops_every_node_when_one_stop_raises(self):
        async def scenario():
            stopped = []
            with pytest.raises(RuntimeError, match="node 2"):
                async with LocalCluster({}) as cluster:
                    for node in cluster.nodes:

                        async def stop(real=node.stop, node_id=node.config.node_id):
                            await real()
                            stopped.append(node_id)
                            if node_id == 2:
                                raise RuntimeError("node 2 failed to stop")

                        node.stop = stop
            return stopped

        assert asyncio.run(scenario()) == [1, 2, 3, 4]


@pytest.mark.integration
class TestServiceEndToEnd:
    def test_protocol_api_all_kinds(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                signature = await client.sign("bls04", b"service sign")
                assert await client.verify_signature("bls04", b"service sign", signature)

                ciphertext = await client.encrypt("sg02", b"service secret", b"lbl")
                plaintext = await client.decrypt("sg02", ciphertext, b"lbl")
                assert plaintext == b"service secret"

                coin_a = await client.flip_coin("cks05", b"round-9")
                coin_b = await client.flip_coin("cks05", b"round-9")
                assert coin_a == coin_b and len(coin_a) == 32

        asyncio.run(scenario())

    def test_crypto_runs_in_the_node_process(self, all_keys):
        """One request per scheme kind: the executor's TRI calls are the only
        place share crypto runs, so a serving cluster has no child process."""

        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                nodes, client = cluster.nodes, cluster.client
                await client.sign("bls04", b"in-process sign")
                ciphertext = await client.encrypt("sg02", b"in-process", b"")
                await client.decrypt("sg02", ciphertext, b"")
                await client.flip_coin("cks05", b"in-process coin")
                assert multiprocessing.active_children() == []
                for node in nodes:
                    stats = node.stats()
                    assert "crypto_pool" not in stats
                    assert stats["event_loop_lag"].get("count", 0) >= 1
            assert multiprocessing.active_children() == []

        asyncio.run(scenario())

    def test_interactive_frost_and_precompute(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                sig = await client.sign("kg20", b"frost service")
                assert await client.verify_signature("kg20", b"frost service", sig)
                pre = await client.precompute("kg20", 3)
                assert all(r["available"] == 3 for r in pre.values())
                sig2 = await client.sign("kg20", b"frost precomputed")
                assert await client.verify_signature(
                    "kg20", b"frost precomputed", sig2
                )

        asyncio.run(scenario())

    def test_repeated_precompute_adds_a_batch_each_time(self, all_keys):
        """A preprocessing round is not a request: asking for three nonce
        sets twice yields six, not the first call's answer again."""

        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                nodes, client = cluster.nodes, cluster.client
                for expected in (3, 6):
                    pre = await client.precompute("kg20", 3)
                    assert [r["available"] for r in pre.values()] == [expected] * 4
                for index in range(6):
                    message = b"precomputed %d" % index
                    signature = await client.sign("kg20", message)
                    assert await client.verify_signature("kg20", message, signature)
                assert all(
                    node.stats()["precompute"]["frost"] == {} for node in nodes
                )

        asyncio.run(scenario())

    def test_rsa_and_pairing_cipher(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                sig = await client.sign("sh00", b"rsa service")
                assert await client.verify_signature("sh00", b"rsa service", sig)
                ct = await client.encrypt("bz03", b"pairing ct", b"l")
                assert await client.decrypt("bz03", ct, b"l") == b"pairing ct"

        asyncio.run(scenario())

    def test_crash_fault_tolerance(self, all_keys):
        """n=4, t=1: one crashed node must not prevent results, and the
        crashed node takes no part: no frame reaches it, none piles up."""

        def frames_received_by_node_4():
            return default_registry().get("repro_network_messages_total").labels(
                "4", "local", "received"
            ).value

        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                await cluster.stop(4)  # crash node 4
                received = frames_received_by_node_4()
                survivors = ThetacryptClient(cluster.addresses)
                try:
                    signature = await survivors.sign("bls04", b"degraded mode")
                    assert await survivors.verify_signature(
                        "bls04", b"degraded mode", signature
                    )
                    for k in range(5):
                        coin = await survivors.flip_coin("cks05", b"coin %d" % k)
                        assert len(coin) == 32
                finally:
                    await survivors.close()
                assert frames_received_by_node_4() == received
                assert cluster.nodes[3].instances._backlog == {}

        asyncio.run(scenario())

    def test_status_and_list_keys(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                await client.sign("bls04", b"status probe")
                instance_id = derive_instance_id("sign", "bls04", b"status probe")
                status = await client.call(1, "status", {"instance_id": instance_id})
                assert status["status"] == "finished"
                assert status["latency"] > 0
                keys = await client.call(1, "list_keys", {})
                listed = {k["key_id"]: k for k in keys["keys"]}
                assert set(listed) == set(all_keys)
                assert listed["bls04"]["kind"] == "signature"
                assert listed["sg02"]["threshold"] == 1

        asyncio.run(scenario())

    def test_error_paths(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                with pytest.raises(RpcError):
                    await client.call(1, "sign", {"key_id": "missing", "data": "00"})
                with pytest.raises(RpcError):
                    await client.call(1, "nonsense", {})
                with pytest.raises(RpcError):
                    # Signing with a cipher key is a category error.
                    await client.call(
                        1, "encrypt", {"key_id": "bls04", "data": "00", "label": ""}
                    )
                # Verification of garbage returns False, not an error.
                assert not await client.verify_signature("bls04", b"m", b"\x00\x01")

        asyncio.run(scenario())

    def test_ping_identifies_nodes(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                for node_id in client.node_ids:
                    pong = await client.call(node_id, "ping", {})
                    assert pong["node_id"] == node_id

        asyncio.run(scenario())

    def test_concurrent_requests(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                coins = await asyncio.gather(
                    *(client.flip_coin("cks05", b"c%d" % k) for k in range(6))
                )
                assert len({bytes(c) for c in coins}) == 6

        asyncio.run(scenario())

    def test_dkg_over_rpc_then_use_key(self, all_keys):
        """Dealerless setup through the service API (§2.2's alternative)."""

        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                group_key = await client.run_dkg("fresh-coin", scheme="cks05")
                assert len(group_key) == 32  # an ed25519 element
                coin_a = await client.flip_coin("fresh-coin", b"dkg round")
                coin_b = await client.flip_coin("fresh-coin", b"dkg round")
                assert coin_a == coin_b and len(coin_a) == 32

                # DKG output also powers a cipher...
                await client.run_dkg("fresh-cipher", scheme="sg02")
                ct = await client.encrypt("fresh-cipher", b"dkg secret", b"l")
                assert await client.decrypt("fresh-cipher", ct, b"l") == b"dkg secret"

                # ...and a FROST signature key.
                await client.run_dkg("fresh-wallet", scheme="kg20")
                sig = await client.sign("fresh-wallet", b"dkg signed")
                assert await client.verify_signature("fresh-wallet", b"dkg signed", sig)

        asyncio.run(scenario())

    def test_durable_restart_ignores_leftover_table_files(self, all_keys, tmp_path):
        """Older releases persisted fixed-base tables to ``data_dir/tables/``.
        A node booting on such a directory ignores it: the coin replays
        byte-identical across the restart, the leftover files stay as they
        were, and the node writes only its keystore and outcome log."""
        keys = {"cks05": all_keys["cks05"]}
        leftovers = {}
        for node_id in range(1, 5):
            tables = tmp_path / f"node{node_id}" / "tables"
            tables.mkdir(parents=True)
            leftover = tables / f"{node_id:032x}.tbl"
            leftover.write_bytes(b"fixed-base table from an older release")
            leftovers[leftover] = leftover.read_bytes()

        async def life():
            async with LocalCluster(keys, data_root=tmp_path) as cluster:
                nodes, client = cluster.nodes, cluster.client
                coin = await client.flip_coin("cks05", b"across the restart")
                recovery = [node.stats()["recovery"] for node in nodes]
            return coin, recovery

        first, _ = asyncio.run(life())
        second, recovery = asyncio.run(life())
        assert second == first
        for stats in recovery:
            assert set(stats) == {"keys", "results", "aborted"}
            assert stats["results"] >= 1
        assert {path: path.read_bytes() for path in leftovers} == leftovers
        for node_id in range(1, 5):
            node_dir = tmp_path / f"node{node_id}"
            assert {p.name for p in node_dir.iterdir()} == {
                "keystore.bin", "results", "tables"
            }
            assert len(list((node_dir / "tables").iterdir())) == 1

    def test_dkg_rejects_bad_targets(self, all_keys):
        async def scenario():
            async with LocalCluster(all_keys) as cluster:
                client = cluster.client
                with pytest.raises(RpcError):
                    await client.run_dkg("rsa-key", scheme="sh00")
                with pytest.raises(RpcError):
                    # Existing key id must not be overwritten.
                    await client.run_dkg("bls04", scheme="cks05")

        asyncio.run(scenario())
