#!/usr/bin/env python3
"""Dealerless setup: distributed key generation as a TRI protocol (§2.2).

The paper's evaluation assumes a trusted dealer, but notes setup can instead
run "through a distributed key-generation protocol, which is run by the
parties themselves".  This example runs the Joint-Feldman DKG over the
network layer — every party deals a random secret, its sub-shares in
directed P2P messages, and t+1 dealers must pass the VSS check — and then
uses the resulting dealerless key for a threshold coin.

Run from the repository root:

    python3 examples/distributed_keygen.py
"""

import asyncio

from repro.core.orchestration import InstanceManager
from repro.core.protocols import DealProtocol
from repro.groups import get_group
from repro.network.local import LocalHub
from repro.network.manager import NetworkManager
from repro.schemes.cks05 import Cks05Coin, Cks05KeyShare, Cks05PublicKey

PARTIES = 5
THRESHOLD = 2


async def main() -> None:
    group = get_group("ed25519")
    hub = LocalHub(latency=lambda src, dst: 0.001)

    # Wire a bare core stack per node: network manager + instance manager.
    networks = {
        i: NetworkManager(hub.endpoint(i))
        for i in range(1, PARTIES + 1)
    }
    managers = {
        i: InstanceManager(i, networks[i].dispatch) for i in networks
    }
    for i, network in networks.items():
        network.set_protocol_handler(managers[i].handle_network_message)

    # Each node runs its DKG protocol instance; no dealer anywhere.
    protocols = {
        i: DealProtocol(
            "dkg-ceremony-1", i, THRESHOLD, PARTIES, group,
            dealers=range(1, PARTIES + 1),
            secret=group.random_scalar(),
            need=THRESHOLD + 1,
        )
        for i in managers
    }
    for i, protocol in protocols.items():
        managers[i].start_instance(protocol, "cks05")
    group_keys = await asyncio.gather(
        *(managers[i].result("dkg-ceremony-1") for i in managers)
    )
    assert len(set(group_keys)) == 1
    print(f"DKG complete; group key: {group_keys[0].hex()[:32]}…")
    print(f"qualified dealers at node 1: {protocols[1].result.qualified}")

    # Plug the DKG output into the CKS05 scheme exactly like dealer output.
    result_1 = protocols[1].result
    public = Cks05PublicKey(
        "ed25519",
        THRESHOLD,
        PARTIES,
        result_1.group_key,
        tuple(result_1.verification_keys),
    )
    shares = {
        i: Cks05KeyShare(i, protocols[i].result.share_value, public)
        for i in protocols
    }

    coin = Cks05Coin()
    name = b"first dealerless coin"
    coin_shares = [coin.create_coin_share(shares[i], name) for i in (1, 3, 5)]
    for share in coin_shares:
        coin.verify_coin_share(public, name, share)
    value = coin.combine(public, name, coin_shares)
    print(f"coin from the dealerless key: {value.hex()}")

    # Any other quorum agrees.
    other = [coin.create_coin_share(shares[i], name) for i in (2, 4, 5)]
    assert coin.combine(public, name, other) == value
    print("a disjoint quorum derives the identical value ✓")

    for manager in managers.values():
        await manager.shutdown()


if __name__ == "__main__":
    asyncio.run(main())
