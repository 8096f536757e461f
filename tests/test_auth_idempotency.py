"""RPC authentication (§3.2) and request idempotency."""

import asyncio
import time
from dataclasses import replace

import pytest

from repro.core.orchestration import derive_instance_id
from repro.errors import RpcError
from repro.service import ThetacryptClient, make_local_configs
from repro.service.cluster import LocalCluster
from repro.service.config import NodeConfig


@pytest.mark.integration
class TestRpcAuthentication:
    def test_wrong_token_rejected(self, keys_cks05):
        async def scenario():
            async with LocalCluster(
                {"coin": keys_cks05}, rpc_auth_token="domain-secret"
            ) as cluster:
                intruder = ThetacryptClient(cluster.addresses)  # no token
                wrong = ThetacryptClient(cluster.addresses, auth_token="guess")
                try:
                    with pytest.raises(RpcError, match="unauthorized"):
                        await intruder.call(1, "ping", {})
                    with pytest.raises(RpcError, match="unauthorized"):
                        await wrong.flip_coin("coin", b"x")
                    value = await cluster.client.flip_coin("coin", b"x")
                    assert len(value) == 32
                finally:
                    await intruder.close()
                    await wrong.close()

        asyncio.run(scenario())

    def test_no_token_configured_means_open(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                assert (await cluster.client.call(1, "ping", {}))["node_id"] == 1

        asyncio.run(scenario())

    def test_config_json_round_trips_token(self):
        config = replace(make_local_configs(4, 1)[0], rpc_auth_token="tok")
        assert NodeConfig.from_json(config.to_json()).rpc_auth_token == "tok"


@pytest.mark.integration
class TestIdempotency:
    def test_repeated_request_reuses_instance(self, keys_cks05):
        """Same request → same instance id → the second call is a cache hit."""

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                client, nodes = cluster.client, cluster.nodes
                first = await client.flip_coin("coin", b"idem")
                start = time.perf_counter()
                second = await client.flip_coin("coin", b"idem")
                cached_latency = time.perf_counter() - start
                assert first == second
                # One instance per node, not two.
                for node in nodes:
                    records = [
                        r for r in node.instances.records()
                        if r.scheme == "cks05"
                    ]
                    assert len(records) == 1
                assert cached_latency < 0.25  # no new protocol round-trips

                # A different name is a different instance.
                await client.flip_coin("coin", b"other")
                assert len(nodes[0].instances.records()) == 2

        asyncio.run(scenario())

    def test_concurrent_duplicate_requests_converge(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                values = await asyncio.gather(
                    *(cluster.client.flip_coin("coin", b"dup") for _ in range(5))
                )
                assert len({bytes(v) for v in values}) == 1
                assert len(cluster.nodes[0].instances.records()) == 1

        asyncio.run(scenario())

    def test_a_key_id_with_nul_cannot_take_another_keys_instances(self, keys_cks05):
        """``derive_instance_id`` ends a key id at a NUL byte, so a coin on
        key ``k`` and one on ``k`` followed by five NULs can name one
        instance, and the outcome table would answer one key's request with
        the other key's coin.  The ids stay as they are (every stored
        result is keyed by them); a key id holding U+0000 is refused before
        any dealing."""
        twin = "k\0\0\0\0\0"
        shared = derive_instance_id("coin", "k", b"\0" * 5 + b"x")
        assert shared == derive_instance_id("coin", twin, b"x")
        assert shared == "coin-1314ebccde805d39be18d182"

        async def scenario():
            async with LocalCluster({"k": keys_cks05}) as cluster:
                client, nodes = cluster.client, cluster.nodes
                coin = await client.flip_coin("k", b"\0" * 5 + b"x")
                with pytest.raises(RpcError, match="U\\+0000"):
                    await client.run_dkg(twin, scheme="cks05")
                for node in nodes:
                    assert twin not in node.keys
                    assert [r.instance_id for r in node.instances.records()] == [shared]
                # The held key still answers its own request.
                assert await client.flip_coin("k", b"\0" * 5 + b"x") == coin

        asyncio.run(scenario())

