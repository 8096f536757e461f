#!/usr/bin/env python3
"""Threshold wallet key management with FROST (paper §2.3, KG20 §3.5).

A cryptocurrency custodian splits a wallet's Schnorr signing key across
signer nodes so no single machine can ever spend funds.  FROST's
precomputation phase runs during quiet periods; at spend time only one round
of interaction is needed, and the output is an ordinary Schnorr signature
the chain verifies as usual.

Run from the repository root:

    python3 examples/wallet_signing.py
"""

import asyncio
import time

from repro.schemes import generate_keys
from repro.schemes.kg20 import Kg20Signature, Kg20SignatureScheme
from repro.service.cluster import LocalCluster

PARTIES = 5
THRESHOLD = 2

WITHDRAWALS = [
    b"withdraw 0.5 BTC to bc1q-alice",
    b"withdraw 12 BTC to bc1q-treasury",
    b"withdraw 0.01 BTC to bc1q-coffee",
]


async def main() -> None:
    key_material = generate_keys("kg20", THRESHOLD, PARTIES)
    async with LocalCluster(
        {"wallet-key": key_material},
        parties=PARTIES,
        threshold=THRESHOLD,
        latency=0.002,  # 2 ms data-center links
    ) as cluster:
        client = cluster.client

        print(f"wallet online: FROST {THRESHOLD + 1}-of-{PARTIES}")
        print(f"wallet public key: {key_material.public_key.y.to_bytes().hex()[:32]}…\n")

        # --- cold path: two-round signing ------------------------------------
        start = time.perf_counter()
        signature = await client.sign("wallet-key", WITHDRAWALS[0])
        two_round_ms = (time.perf_counter() - start) * 1000
        print(f"two-round signing: {two_round_ms:7.1f} ms  {WITHDRAWALS[0].decode()}")

        # --- hot path: precompute nonces during a quiet period ----------------
        await client.precompute("wallet-key", count=8)
        print("precomputed a batch of 8 nonce commitments\n")

        for withdrawal in WITHDRAWALS[1:]:
            start = time.perf_counter()
            signature = await client.sign("wallet-key", withdrawal)
            one_round_ms = (time.perf_counter() - start) * 1000
            print(f"one-round signing:  {one_round_ms:7.1f} ms  {withdrawal.decode()}")

    # --- the chain-side verifier needs no threshold machinery ----------------
    scheme = Kg20SignatureScheme()
    sig = Kg20Signature.from_bytes(signature, key_material.public_key.group)
    scheme.verify(key_material.public_key, WITHDRAWALS[-1], sig)
    print("\non-chain verifier accepts the plain Schnorr signature ✓")

    # g^z == R · Y^c — spell the equation out for the skeptical auditor.
    group = key_material.public_key.group
    c = scheme.challenge(group, sig.r, key_material.public_key.y, WITHDRAWALS[-1])
    assert group.generator() ** sig.z == sig.r * key_material.public_key.y**c
    print("Schnorr equation g^z = R·Y^c holds ✓")


if __name__ == "__main__":
    asyncio.run(main())
