"""Deeper coverage: TOB gap buffering, latency matrix completeness,
7-node paper-shaped deployment, chain serialization fuzz, workload bounds."""

import asyncio
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.types import Block, Transaction
from repro.errors import ThetacryptError
from repro.network.local import LocalHub
from repro.network.tob import SequencerTob
from repro.schemes import generate_keys
from repro.service import ThetacryptClient
from repro.service.cluster import LocalCluster
from repro.sim.latency import Region, rtt
from repro.sim.workload import Workload


class TestTobGapBuffering:
    def test_out_of_order_stamps_deliver_in_order(self):
        async def scenario():
            hub = LocalHub()
            tob = SequencerTob(hub.endpoint(2))
            delivered = []

            async def handler(sender, data):
                delivered.append(data)

            tob.set_handler(handler)
            # Stamps arrive 2, 0, 1 — delivery must still be 0, 1, 2.
            await tob._on_ordered(2, 9, b"third")
            assert delivered == []
            await tob._on_ordered(0, 9, b"first")
            assert delivered == [b"first"]
            await tob._on_ordered(1, 9, b"second")
            assert delivered == [b"first", b"second", b"third"]

        asyncio.run(scenario())

    def test_duplicate_stamp_does_not_double_deliver(self):
        async def scenario():
            hub = LocalHub()
            tob = SequencerTob(hub.endpoint(2))
            delivered = []

            async def handler(sender, data):
                delivered.append(data)

            tob.set_handler(handler)
            await tob._on_ordered(0, 1, b"once")
            await tob._on_ordered(0, 1, b"once")  # replayed frame
            assert delivered == [b"once"]

        asyncio.run(scenario())


class TestLatencyMatrixComplete:
    def test_every_region_pair_defined(self):
        for a, b in itertools.product(Region, Region):
            value = rtt(a, b)
            assert value > 0

    def test_triangle_inequality_roughly_holds(self):
        # WAN RTTs need not satisfy it exactly, but no pair should be
        # wildly cheaper via a relay in our matrix.
        for a, b, c in itertools.permutations(Region, 3):
            direct = rtt(a, c)
            relayed = rtt(a, b) + rtt(b, c)
            assert direct <= relayed * 1.5


@pytest.mark.integration
class TestPaperShapedDeployment:
    def test_three_of_seven_like_the_paper(self):
        """7 nodes, threshold quorum 3 — the paper's small deployment."""
        keys = generate_keys("cks05", 2, 7)

        async def scenario():
            async with LocalCluster({"coin": keys}, parties=7, threshold=2) as cluster:
                value = await cluster.client.flip_coin("coin", b"paper-shape")
                assert len(value) == 32
                # Crash t = 2 nodes; the quorum of 3 still works.
                await cluster.stop(7, 6)
                survivors = ThetacryptClient(cluster.addresses)
                try:
                    value2 = await survivors.flip_coin("coin", b"degraded")
                finally:
                    await survivors.close()
                assert len(value2) == 32

        asyncio.run(scenario())


class TestChainSerializationFuzz:
    @settings(max_examples=40)
    @given(st.binary(max_size=200))
    def test_block_decoder_total(self, data):
        try:
            block = Block.from_bytes(data)
        except ThetacryptError:
            return
        assert block.to_bytes() == data

    @settings(max_examples=20)
    @given(
        st.integers(1, 10**6),
        st.binary(min_size=32, max_size=32),
        st.integers(1, 100),
        st.lists(
            st.tuples(st.text(max_size=10), st.binary(max_size=50), st.booleans()),
            max_size=5,
        ),
    )
    def test_block_round_trip_property(self, height, parent, proposer, txs):
        block = Block(
            height,
            parent,
            proposer,
            tuple(Transaction(s, p, e) for s, p, e in txs),
        )
        assert Block.from_bytes(block.to_bytes()) == block


class TestWorkloadBounds:
    @settings(max_examples=30)
    @given(
        st.floats(min_value=0.5, max_value=500, allow_nan=False),
        st.floats(min_value=0.1, max_value=30, allow_nan=False),
    )
    def test_arrivals_within_duration(self, rate, duration):
        workload = Workload(rate=rate, duration=duration)
        times = workload.arrival_times()
        assert len(times) == workload.request_count
        if times:
            assert min(times) >= 0
            assert max(times) <= duration * 1.05 + 1.0 / rate

    def test_seeded_determinism(self):
        a = Workload(rate=10, duration=2, seed=1).arrival_times()
        b = Workload(rate=10, duration=2, seed=1).arrival_times()
        c = Workload(rate=10, duration=2, seed=2).arrival_times()
        assert a == b
        assert a != c
