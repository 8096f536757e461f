"""Network-layer variants: TOB configurations, service behavior with
message loss, and mixed-channel deployments."""

import asyncio

import pytest

from repro.core.messages import Channel, ProtocolMessage
from repro.errors import ProtocolAbortedError
from repro.network.faults import FaultPlan, Partition
from repro.network.local import LocalHub
from repro.network.manager import NetworkManager
from repro.network.tob import SequencerTob
from repro.service.cluster import LocalCluster
from repro.telemetry import parse_text


def collect_handler(store):
    async def handler(sender, data):
        store.append((sender, data))

    return handler


class TestTobVariants:
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


    def test_restarted_node_is_still_partitioned(self, keys_cks05):
        """A restart wraps the new node's endpoint in the plan too: node 4
        comes back still cut off, its own sends dropped by its own wrapper
        (the peers' wrappers alone would also keep it from a quorum)."""
        plan = FaultPlan(partitions=(Partition(groups=((1, 2, 3), (4,))),))

        def dropped_by_node_4(cluster):
            return sum(
                value
                for (name, labels), value in parse_text(
                    cluster.nodes[3].render_metrics()
                ).items()
                if name == "repro_faults_injected"
                and {("node", "4"), ("kind", "partition")} <= set(labels)
            )

        async def scenario():
            async with LocalCluster(
                {"coin": keys_cks05}, fault_plan=plan, instance_timeout=0.5
            ) as cluster:
                await cluster.restart(4)
                before = dropped_by_node_4(cluster)
                record = cluster.nodes[3].submit_request("coin", "coin", b"cut off")
                value = await cluster.client.flip_coin("coin", b"cut off")
                assert len(value) == 32
                assert dropped_by_node_4(cluster) > before
                with pytest.raises(ProtocolAbortedError):
                    await cluster.nodes[3].instances.result(record)

        asyncio.run(scenario())

    def test_restarted_node_sees_the_partition_heal(self, keys_cks05):
        """Every wrapper reads the cluster's one fault clock: a node
        restarted after the heal time is healed too, not partitioned again
        for ``heal`` seconds of a clock of its own."""
        plan = FaultPlan(
            partitions=(Partition(groups=((1, 2, 3), (4,)), heal=0.3),)
        )

        async def scenario():
            async with LocalCluster(
                {"coin": keys_cks05}, fault_plan=plan, instance_timeout=2.0
            ) as cluster:
                await asyncio.sleep(0.5)
                await cluster.restart(4)
                record = cluster.nodes[3].submit_request("coin", "coin", b"healed")
                value = await cluster.client.flip_coin("coin", b"healed")
                assert await cluster.nodes[3].instances.result(record) == value

        asyncio.run(scenario())


class TestManagerExternalTob:
    def test_external_tob_used_for_tob_channel(self):
        async def scenario():
            hub = LocalHub()
            tob_hub = LocalHub()
            managers = {}
            seen = {i: [] for i in (1, 2)}
            for i in (1, 2):
                external = SequencerTob(tob_hub.endpoint(i))
                manager = NetworkManager(hub.endpoint(i), tob=external)

                async def handler(message, i=i):
                    seen[i].append(message.payload)

                manager.set_protocol_handler(handler)
                managers[i] = manager
                await manager.start()
            await managers[2].dispatch(
                ProtocolMessage("inst", 2, 0, Channel.TOB, b"external")
            )
            await tob_hub.drain()
            assert seen[1] == [b"external"] and seen[2] == [b"external"]
            for manager in managers.values():
                await manager.stop()

        asyncio.run(scenario())
