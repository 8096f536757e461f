"""KG20 nonce preprocessing: staged nonce sets enter through the FROST
protocol's constructor, and a node's pool is consumed once per request.

FROST's nonce batches (§3.5) are the service's only preprocessing; every
other request runs when it is asked for.  These tests pin the pool's
invariants: a staged set skips the commitment round, a duplicate request
burns no set, and (ROADMAP 21, strict xfail) the pairing of requests with
sets still depends on arrival order.
"""

import asyncio

import pytest

from repro.core.protocols import FrostProtocol
from repro.core.protocols.frost import FrostPrecomputationPool
from repro.errors import ProtocolError
from repro.schemes.kg20 import Kg20Signature, Kg20SignatureScheme
from repro.service.cluster import LocalCluster


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
# KG20 nonce pools on a service cluster
# ---------------------------------------------------------------------------


@pytest.mark.integration
class TestPipelineService:
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
