"""Network layer: local hub, TCP transport, sequencer TOB, network manager."""

import asyncio

import pytest

from repro.core.messages import Channel, ProtocolMessage
from repro.errors import NetworkError
from repro.network.local import LocalHub
from repro.network.manager import _TAG_PROTOCOL, _TAG_TOB, NetworkManager
from repro.network.tcp import TcpP2P
from repro.network.tob import _ORDERED, SequencerTob
from repro.serialization import encode_bytes, encode_int
from repro.telemetry import default_registry


def decode_failures(node_id):
    return default_registry().get("repro_network_decode_failures_total").labels(
        str(node_id)
    ).value


def collect_handler(store):
    async def handler(sender, data):
        store.append((sender, data))

    return handler


class TestLocalHub:
    def test_send_and_broadcast(self):
        async def scenario():
            hub = LocalHub()
            endpoints = {i: hub.endpoint(i) for i in (1, 2, 3)}
            received = {i: [] for i in endpoints}
            for i, ep in endpoints.items():
                ep.set_handler(collect_handler(received[i]))
            await endpoints[1].send(2, b"direct")
            await endpoints[1].broadcast(b"flood")
            await hub.drain()
            assert (1, b"direct") in received[2]
            assert (1, b"flood") in received[2]
            assert (1, b"flood") in received[3]
            assert received[1] == []  # no self-delivery

        asyncio.run(scenario())

    def test_latency_injection_orders_delivery(self):
        async def scenario():
            # 1→2 is slow, 1→3 fast: 3 must receive first.
            hub = LocalHub(latency=lambda a, b: 0.05 if b == 2 else 0.001)
            order = []

            async def make(i):
                async def handler(sender, data):
                    order.append(i)

                return handler

            for i in (1, 2, 3):
                hub.endpoint(i)
            hub.endpoint(2).set_handler(collect_handler([]) if False else None)

            async def record(i):
                async def handler(sender, data):
                    order.append(i)

                hub.endpoint(i).set_handler(handler)

            await record(2)
            await record(3)
            await hub.endpoint(1).broadcast(b"x")
            await hub.drain()
            assert order == [3, 2]

        asyncio.run(scenario())

    def test_stopped_endpoint_receives_nothing_until_reattached(self):
        """A stopped node is gone from the hub: a frame sent to it is lost
        and not counted as received, until a restarted node's handler
        attaches to the same endpoint."""

        async def scenario():
            hub = LocalHub()
            received = []
            hub.endpoint(1)
            hub.endpoint(2).set_handler(collect_handler(received))
            counted = default_registry().get("repro_network_messages_total").labels(
                "2", "local", "received"
            )
            await hub.endpoint(2).stop()
            before = counted.value
            await hub.endpoint(1).send(2, b"lost")
            await hub.drain()
            assert received == [] and counted.value == before
            hub.endpoint(2).set_handler(collect_handler(received))
            await hub.endpoint(1).send(2, b"found")
            await hub.drain()
            assert received == [(1, b"found")] and counted.value == before + 1

        asyncio.run(scenario())

    def test_self_send_rejected(self):
        async def scenario():
            hub = LocalHub()
            ep = hub.endpoint(1)
            with pytest.raises(NetworkError):
                await ep.send(1, b"me")

        asyncio.run(scenario())

    def test_peer_ids(self):
        hub = LocalHub()
        for i in (1, 2, 3):
            hub.endpoint(i)
        assert hub.endpoint(2).peer_ids() == [1, 3]


@pytest.mark.integration
class TestTcpTransport:
    def test_bidirectional_exchange(self):
        async def scenario():
            peers = {1: ("127.0.0.1", 19401), 2: ("127.0.0.1", 19402)}
            node1 = TcpP2P(1, "127.0.0.1", 19401, {2: peers[2]})
            node2 = TcpP2P(2, "127.0.0.1", 19402, {1: peers[1]})
            received1, received2 = [], []
            node1.set_handler(collect_handler(received1))
            node2.set_handler(collect_handler(received2))
            await node1.start()
            await node2.start()
            try:
                await node1.send(2, b"hello from 1")
                await node2.send(1, b"hello from 2")
                await asyncio.sleep(0.2)
                assert received2 == [(1, b"hello from 1")]
                assert received1 == [(2, b"hello from 2")]
            finally:
                await node1.stop()
                await node2.stop()

        asyncio.run(scenario())

    def test_broadcast_and_large_frame(self):
        async def scenario():
            ports = {i: 19410 + i for i in (1, 2, 3)}
            peers = {i: ("127.0.0.1", p) for i, p in ports.items()}
            nodes = {
                i: TcpP2P(i, "127.0.0.1", ports[i], {j: peers[j] for j in ports if j != i})
                for i in ports
            }
            received = {i: [] for i in ports}
            for i, node in nodes.items():
                node.set_handler(collect_handler(received[i]))
                await node.start()
            try:
                big = bytes(range(256)) * 1024  # 256 KiB
                await nodes[1].broadcast(big)
                await asyncio.sleep(0.3)
                assert received[2] == [(1, big)]
                assert received[3] == [(1, big)]
            finally:
                for node in nodes.values():
                    await node.stop()

        asyncio.run(scenario())

    def test_unknown_peer_rejected(self):
        async def scenario():
            node = TcpP2P(1, "127.0.0.1", 19420, {})
            with pytest.raises(NetworkError):
                await node.send(9, b"x")

        asyncio.run(scenario())


class TestSequencerTob:
    def _network(self, n):
        hub = LocalHub()
        tobs = {i: SequencerTob(hub.endpoint(i)) for i in range(1, n + 1)}
        return hub, tobs

    def test_total_order_identical_everywhere(self):
        async def scenario():
            hub, tobs = self._network(4)
            delivered = {i: [] for i in tobs}
            for i, tob in tobs.items():
                tob.set_handler(collect_handler(delivered[i]))
            # Concurrent submissions from every node.
            await asyncio.gather(
                tobs[2].submit(b"from-2"),
                tobs[3].submit(b"from-3"),
                tobs[1].submit(b"from-1"),
                tobs[4].submit(b"from-4"),
            )
            await hub.drain()
            sequences = {i: [d for d in delivered[i]] for i in tobs}
            reference = sequences[1]
            assert len(reference) == 4
            for i in (2, 3, 4):
                assert sequences[i] == reference

        asyncio.run(scenario())

    def test_origin_attribution(self):
        async def scenario():
            hub, tobs = self._network(3)
            delivered = []
            tobs[2].set_handler(collect_handler(delivered))
            tobs[1].set_handler(collect_handler([]))
            tobs[3].set_handler(collect_handler([]))
            await tobs[3].submit(b"payload")
            await hub.drain()
            assert delivered == [(3, b"payload")]

        asyncio.run(scenario())

    def test_stamp_from_a_non_sequencer_is_dropped(self):
        """Node 4 sends node 3 a forged stamp 0.  Node 3 drops and counts
        it, so every node delivers node 2's real message at position 0."""

        async def scenario():
            hub = LocalHub()
            managers = {
                i: NetworkManager(hub.endpoint(i))
                for i in (1, 2, 3, 4)
            }
            seen = {i: [] for i in managers}
            for i, manager in managers.items():
                async def handler(message, i=i):
                    seen[i].append((message.sender, message.payload))

                manager.set_protocol_handler(handler)
            before = decode_failures(3)
            forged = ProtocolMessage("inst", 2, 0, Channel.TOB, b"forged")
            await hub.endpoint(4).send(
                3,
                bytes([_TAG_TOB])
                + encode_int(_ORDERED)
                + encode_int(0)
                + encode_int(2)
                + encode_bytes(forged.to_bytes()),
            )
            await managers[2].dispatch(
                ProtocolMessage("inst", 2, 0, Channel.TOB, b"real")
            )
            await hub.drain()
            for i in managers:
                assert seen[i] == [(2, b"real")], f"node {i}"
            assert decode_failures(3) == before + 1

        asyncio.run(scenario())


class TestNetworkManager:
    def test_dispatch_p2p_broadcast(self, keys_cks05):
        async def scenario():
            hub = LocalHub()
            managers = {
                i: NetworkManager(hub.endpoint(i))
                for i in (1, 2, 3)
            }
            seen = {i: [] for i in managers}
            for i, manager in managers.items():
                async def handler(message, i=i):
                    seen[i].append(message)

                manager.set_protocol_handler(handler)
            message = ProtocolMessage("inst", 1, 0, Channel.P2P, b"payload")
            await managers[1].dispatch(message)
            await hub.drain()
            assert len(seen[2]) == 1 and len(seen[3]) == 1
            assert seen[2][0].payload == b"payload"

        asyncio.run(scenario())

    def test_dispatch_directed(self):
        async def scenario():
            hub = LocalHub()
            managers = {
                i: NetworkManager(hub.endpoint(i))
                for i in (1, 2, 3)
            }
            seen = {i: [] for i in managers}
            for i, manager in managers.items():
                async def handler(message, i=i):
                    seen[i].append(message)

                manager.set_protocol_handler(handler)
            message = ProtocolMessage("inst", 1, 0, Channel.P2P, b"x", recipient=3)
            await managers[1].dispatch(message)
            await hub.drain()
            assert seen[2] == [] and len(seen[3]) == 1

        asyncio.run(scenario())

    def test_dispatch_tob_delivers_in_same_order(self):
        async def scenario():
            hub = LocalHub()
            managers = {
                i: NetworkManager(hub.endpoint(i))
                for i in (1, 2, 3)
            }
            seen = {i: [] for i in managers}
            for i, manager in managers.items():
                async def handler(message, i=i):
                    seen[i].append(message.payload)

                manager.set_protocol_handler(handler)
            await managers[2].dispatch(
                ProtocolMessage("inst", 2, 0, Channel.TOB, b"a")
            )
            await managers[3].dispatch(
                ProtocolMessage("inst", 3, 0, Channel.TOB, b"b")
            )
            await hub.drain()
            assert seen[1] == seen[2] == seen[3]
            assert sorted(seen[1]) == [b"a", b"b"]

        asyncio.run(scenario())

    def test_directed_tob_message_reaches_only_its_recipient(self):
        """TOB hands every ordered message to every node; only the
        addressee's handler sees a directed one."""

        async def scenario():
            hub = LocalHub()
            managers = {
                i: NetworkManager(hub.endpoint(i))
                for i in (1, 2, 3, 4)
            }
            seen = {i: [] for i in managers}
            for i, manager in managers.items():
                async def handler(message, i=i):
                    seen[i].append(message.payload)

                manager.set_protocol_handler(handler)
            await managers[2].dispatch(
                ProtocolMessage("inst", 2, 0, Channel.TOB, b"to 3", recipient=3)
            )
            await hub.drain()
            assert seen == {1: [], 2: [], 3: [b"to 3"], 4: []}

        asyncio.run(scenario())

    def test_misaddressed_p2p_frame_is_dropped(self):
        async def scenario():
            hub = LocalHub()
            managers = {
                i: NetworkManager(hub.endpoint(i))
                for i in (1, 2, 3)
            }
            seen = {i: [] for i in managers}
            for i, manager in managers.items():
                async def handler(message, i=i):
                    seen[i].append(message.payload)

                manager.set_protocol_handler(handler)
            message = ProtocolMessage("inst", 1, 0, Channel.P2P, b"x", recipient=3)
            # Node 1's raw transport hands node 2 a frame addressed to node 3.
            await hub.endpoint(1).send(2, bytes([_TAG_PROTOCOL]) + message.to_bytes())
            await hub.drain()
            assert seen == {1: [], 2: [], 3: []}

        asyncio.run(scenario())
