#!/usr/bin/env python3
"""A distributed randomness beacon from the CKS05 threshold coin (§2.3).

Emulates a drand-style beacon: every round, the Θ-network jointly evaluates
the threshold-random function on the round name chained with the previous
value.  The output is unpredictable to any t nodes, unbiased, and *unique* —
every quorum derives the same value, so the beacon never forks.

Run from the repository root:

    python3 examples/randomness_beacon.py
"""

import asyncio

from repro.schemes import generate_keys
from repro.service import ThetacryptClient
from repro.service.cluster import LocalCluster

PARTIES = 7
THRESHOLD = 2  # 3-of-7, the paper's small deployment shape
ROUNDS = 5


async def main() -> None:
    key_material = generate_keys("cks05", THRESHOLD, PARTIES)
    async with LocalCluster(
        {"beacon-key": key_material}, parties=PARTIES, threshold=THRESHOLD
    ) as cluster:
        client = cluster.client
        print(f"beacon online: {THRESHOLD + 1}-of-{PARTIES} threshold coin\n")

        # --- emit a chain of beacon values -----------------------------------
        previous = b"genesis"
        chain = []
        for round_number in range(1, ROUNDS + 1):
            name = b"round-%d|" % round_number + previous
            value = await client.flip_coin("beacon-key", name)
            chain.append((round_number, name, value))
            print(f"round {round_number}: {value.hex()}")
            previous = value

        # --- uniqueness: re-evaluate a past round, must match exactly --------
        replay_round, replay_name, original = chain[2]
        replayed = await client.flip_coin("beacon-key", replay_name)
        assert replayed == original
        print(f"\nround {replay_round} re-evaluated by a fresh quorum: identical ✓")

        # --- liveness under faults: a crashed node does not stop the beacon --
        await cluster.stop(PARTIES, PARTIES - 1)
        survivors = ThetacryptClient(cluster.addresses)
        name = b"round-%d|" % (ROUNDS + 1) + previous
        value = await survivors.flip_coin("beacon-key", name)
        print(f"round {ROUNDS + 1} with 2 of 7 nodes down: {value.hex()} ✓")
        await survivors.close()

    # --- applications: unbiased dice for a blockchain game -------------------
    dice = value[0] % 6 + 1
    print(f"\nprovably fair dice roll from the beacon: {dice}")


if __name__ == "__main__":
    asyncio.run(main())
