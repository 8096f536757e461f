#!/usr/bin/env python3
"""Front-running prevention with threshold encryption (paper §2.3).

The classic blockchain use case: users encrypt transactions under the
service-wide SG02 key, validators order the *ciphertexts* with total-order
broadcast, and only after the order is fixed do the validators jointly
decrypt and execute.  A front-runner watching the mempool sees only
ciphertexts, so it cannot react to transaction contents before they are
committed.

Run from the repository root:

    python3 examples/frontrunning_prevention.py
"""

import asyncio

from repro.schemes import generate_keys
from repro.service.cluster import LocalCluster

PARTIES = 4
THRESHOLD = 1

# The transactions users want to keep private until ordered: a DEX swap that
# a front-runner would love to sandwich.
TRANSACTIONS = [
    b"swap 1000 USDC -> ETH, max slippage 0.1%",
    b"swap 55 ETH -> USDC, limit 3500",
    b"add liquidity: 10 ETH + 35000 USDC",
]


async def main() -> None:
    key_material = generate_keys("sg02", THRESHOLD, PARTIES)
    async with LocalCluster(
        {"mempool-key": key_material}, parties=PARTIES, threshold=THRESHOLD
    ) as cluster:
        await run_mempool(cluster.client)


async def run_mempool(client) -> None:
    # --- phase 1: users submit encrypted transactions ----------------------
    # The label binds the ciphertext to its consensus epoch, so decryption
    # shares for one epoch are useless in another.
    epoch = b"epoch-000042"
    encrypted_mempool = []
    for tx in TRANSACTIONS:
        ciphertext = await client.encrypt("mempool-key", tx, epoch)
        encrypted_mempool.append(ciphertext)
        print(f"mempool <- ciphertext ({len(ciphertext)} bytes), plaintext hidden")

    # --- phase 2: consensus orders the ciphertexts -------------------------
    # Here the host blockchain's TOB would fix the order; we use arrival
    # order for the demo.  Crucially the ORDER IS NOW FINAL and was decided
    # without anyone seeing transaction contents.
    ordered_block = list(encrypted_mempool)
    print(f"\nblock sealed with {len(ordered_block)} encrypted transactions")

    # --- phase 3: validators jointly decrypt, then execute -----------------
    print("\nvalidators decrypt after ordering:")
    executed = []
    for position, ciphertext in enumerate(ordered_block):
        plaintext = await client.decrypt("mempool-key", ciphertext, epoch)
        executed.append(plaintext)
        print(f"  [{position}] execute: {plaintext.decode()}")

    assert executed == TRANSACTIONS

    # --- what a front-runner cannot do --------------------------------------
    # Fewer than t+1 = 2 colluding validators learn nothing: a single node's
    # decryption share never leaves its process, and a tampered ciphertext
    # is rejected before any share is produced (CCA security).
    from repro.errors import RpcError

    tampered = bytearray(ordered_block[0])
    tampered[-1] ^= 0xFF  # flip a payload bit: the AEAD layer catches it
    try:
        await client.decrypt("mempool-key", bytes(tampered), epoch)
        raise AssertionError("tampered ciphertext must not decrypt")
    except RpcError:
        print("\ntampered payload rejected (authenticated encryption) ✓")
    # Flipping the threshold part instead trips the TDH2 validity proof, so
    # nodes refuse to even produce decryption shares (the CCA guard).
    tampered = bytearray(ordered_block[0])
    tampered[20] ^= 0xFF  # inside the masked key / proof region
    try:
        await client.decrypt("mempool-key", bytes(tampered), epoch)
        raise AssertionError("tampered ciphertext must not decrypt")
    except RpcError:
        print("tampered KEM rejected before any share was produced (CCA) ✓")


if __name__ == "__main__":
    asyncio.run(main())
