"""Proxy modules: Thetacrypt riding a host platform's network stack.

Two "host platform" nodes (the blockchain side of Fig. 1) expose bridge
endpoints over their own transports; Thetacrypt-side proxies attach to them
and exchange P2P and TOB traffic without any network stack of their own.
"""

import asyncio

import pytest

from repro.network.local import LocalHub
from repro.network.proxy import HostPlatformBridge, P2PProxy, TobProxy
from repro.network.tob import SequencerTob


@pytest.mark.integration
def test_p2p_proxy_end_to_end():
    async def scenario():
        hub = LocalHub()
        bridges = {
            i: HostPlatformBridge("127.0.0.1", 19600 + i, hub.endpoint(i))
            for i in (1, 2)
        }
        for bridge in bridges.values():
            await bridge.start()
        proxies = {
            i: P2PProxy(i, "127.0.0.1", 19600 + i, peer_count=2) for i in (1, 2)
        }
        received = {i: [] for i in proxies}
        for i, proxy in proxies.items():
            async def handler(sender, data, i=i):
                received[i].append((sender, data))

            proxy.set_handler(handler)
            await proxy.start()
        try:
            await proxies[1].send(2, b"through the host")
            await proxies[2].broadcast(b"broadcast back")
            await asyncio.sleep(0.2)
            assert received[2] == [(1, b"through the host")]
            assert received[1] == [(2, b"broadcast back")]
            assert proxies[1].peer_ids() == [2]
        finally:
            for proxy in proxies.values():
                await proxy.stop()
            for bridge in bridges.values():
                await bridge.stop()

    asyncio.run(scenario())


@pytest.mark.integration
def test_tob_proxy_rides_host_ordering():
    async def scenario():
        hub = LocalHub()
        tob_hub = LocalHub()
        bridges = {}
        for i in (1, 2, 3):
            host_tob = SequencerTob(tob_hub.endpoint(i))
            bridges[i] = HostPlatformBridge(
                "127.0.0.1", 19620 + i, hub.endpoint(i), tob=host_tob
            )
            await bridges[i].start()
        proxies = {i: TobProxy(i, "127.0.0.1", 19620 + i) for i in (1, 2, 3)}
        delivered = {i: [] for i in proxies}
        for i, proxy in proxies.items():
            async def handler(sender, data, i=i):
                delivered[i].append((sender, data))

            proxy.set_handler(handler)
            await proxy.start()
        try:
            await proxies[2].submit(b"first")
            await proxies[3].submit(b"second")
            await asyncio.sleep(0.3)
            assert delivered[1] == delivered[2] == delivered[3]
            assert len(delivered[1]) == 2
            origins = {sender for sender, _ in delivered[1]}
            assert origins == {2, 3}
        finally:
            for proxy in proxies.values():
                await proxy.stop()
            for bridge in bridges.values():
                await bridge.stop()

    asyncio.run(scenario())
