"""Network-layer variants: TOB configurations, service behavior with
message loss, and mixed-channel deployments."""

import asyncio

import pytest

from repro.core.messages import Channel, ProtocolMessage
from repro.network.faults import FaultPlan, Partition
from repro.network.local import LocalHub
from repro.network.manager import NetworkManager
from repro.network.tob import SequencerTob
from repro.service.cluster import LocalCluster


def collect_handler(store):
    async def handler(sender, data):
        store.append((sender, data))

    return handler


class TestTobVariants:
    def test_non_default_sequencer(self):
        async def scenario():
            hub = LocalHub()
            tobs = {
                i: SequencerTob(hub.endpoint(i), sequencer_id=3)
                for i in (1, 2, 3)
            }
            delivered = {i: [] for i in tobs}
            for i, tob in tobs.items():
                tob.set_handler(collect_handler(delivered[i]))
            await tobs[1].submit(b"a")
            await tobs[2].submit(b"b")
            await hub.drain()
            assert delivered[1] == delivered[2] == delivered[3]
            assert len(delivered[1]) == 2
            assert tobs[3].is_sequencer and not tobs[1].is_sequencer

        asyncio.run(scenario())

    def test_sequencer_self_submission_delivered_everywhere(self):
        async def scenario():
            hub = LocalHub()
            tobs = {i: SequencerTob(hub.endpoint(i)) for i in (1, 2)}
            delivered = {i: [] for i in tobs}
            for i, tob in tobs.items():
                tob.set_handler(collect_handler(delivered[i]))
            await tobs[1].submit(b"from the sequencer itself")
            await hub.drain()
            assert delivered[1] == delivered[2] == [(1, b"from the sequencer itself")]

        asyncio.run(scenario())

    def test_many_messages_remain_totally_ordered(self):
        async def scenario():
            hub = LocalHub(latency=lambda a, b: 0.001 * ((a + b) % 3))
            tobs = {i: SequencerTob(hub.endpoint(i)) for i in (1, 2, 3, 4)}
            delivered = {i: [] for i in tobs}
            for i, tob in tobs.items():
                tob.set_handler(collect_handler(delivered[i]))
            await asyncio.gather(
                *(tobs[1 + (k % 4)].submit(b"m%02d" % k) for k in range(20))
            )
            await hub.drain()
            reference = delivered[1]
            assert len(reference) == 20
            for i in (2, 3, 4):
                assert delivered[i] == reference

        asyncio.run(scenario())


class TestServiceUnderMessageLoss:
    def test_noninteractive_tolerates_partitioned_node(self, keys_cks05):
        """Cut every link to one node: 3 healthy of 4 still reach quorum."""
        plan = FaultPlan(partitions=(Partition(groups=((1, 2, 3), (4,))),))

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}, fault_plan=plan) as cluster:
                value = await cluster.client.flip_coin("coin", b"partitioned")
                assert len(value) == 32

        asyncio.run(scenario())


class TestManagerExternalTob:
    def test_external_tob_used_for_tob_channel(self):
        async def scenario():
            hub = LocalHub()
            tob_hub = LocalHub()
            managers = {}
            seen = {i: [] for i in (1, 2)}
            for i in (1, 2):
                external = SequencerTob(tob_hub.endpoint(i), sequencer_id=1)
                manager = NetworkManager(
                    hub.endpoint(i), enable_tob=False, tob=external
                )

                async def handler(message, i=i):
                    seen[i].append(message.payload)

                manager.set_protocol_handler(handler)
                managers[i] = manager
                await manager.start()
            assert managers[1].has_tob
            await managers[2].dispatch(
                ProtocolMessage("inst", 2, 0, Channel.TOB, b"external")
            )
            await tob_hub.drain()
            assert seen[1] == [b"external"] and seen[2] == [b"external"]
            for manager in managers.values():
                await manager.stop()

        asyncio.run(scenario())
