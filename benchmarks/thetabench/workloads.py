"""The four workloads: seeded requests and the oracles for their replies.

A request is ``(payload, expected)``: ``payload`` is what the service
receives, ``expected`` the reply the oracle wants byte for byte, or None
where only a sampled check exists (signatures are verified against the
public key, coins are re-requested from every node).  The service sees
only the payloads; the seed never reaches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ThetacryptError
from repro.schemes import bls04
from repro.schemes.base import get_scheme
from repro.serialization import hexlify, unhexlify

PAYLOAD_BYTES = 4096
REPLAY_SET = 64
SIGN_SAMPLES = 16
COIN_SAMPLES = 32

Request = tuple[bytes, bytes | None]


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    method: str  # the RPC method: flip_coin / sign / decrypt
    durable: bool  # daemons get a per-node data_dir
    replay: bool  # requests are duplicates of a prefilled, restarted set
    trace_requests: int  # requests the in-process trace pass drives


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coin_fresh", "cks05", "flip_coin", False, False, 20),
        Workload("sign_pairing", "bls04", "sign", False, False, 6),
        Workload("decrypt_durable", "sg02", "decrypt", True, False, 20),
        Workload("replay_cached", "cks05", "flip_coin", True, True, 500),
    )
}


def fresh_requests(workload: Workload, material: dict, seed: int) -> Iterator[Request]:
    """Endless distinct requests for a fresh (non-replay) workload."""
    rng = random.Random(f"thetabench/{workload.name}/{seed}")
    if workload.method == "decrypt":
        cipher = get_scheme(workload.scheme)
        public_key = material[workload.scheme].public_key
        while True:
            plaintext = rng.randbytes(PAYLOAD_BYTES)
            yield cipher.encrypt(public_key, plaintext, b"").to_bytes(), plaintext
    while True:
        yield rng.randbytes(32), None


def replay_requests(prefilled: list[Request], seed: int) -> Iterator[Request]:
    """Endless seeded-random duplicates of the prefilled set."""
    rng = random.Random(f"thetabench/replay-order/{seed}")
    while True:
        yield rng.choice(prefilled)


async def send(client, workload: Workload, payload: bytes) -> bytes:
    """One request through the client's fan-out; returns the raw reply."""
    if workload.method == "decrypt":
        return await client.decrypt(workload.scheme, payload)
    if workload.method == "sign":
        return await client.sign(workload.scheme, payload)
    return await client.flip_coin(workload.scheme, payload)


async def _every_node_agrees(client, workload: Workload, payload: bytes, reply: bytes) -> bool:
    """Re-request ``payload`` from each node alone; all must repeat ``reply``."""
    answers = await client.broadcast(
        workload.method, {"key_id": workload.scheme, "data": hexlify(payload)}
    )
    return all(
        not isinstance(answer, Exception) and unhexlify(answer["result"]) == reply
        for answer in answers.values()
    )


async def count_wrong(
    client,
    workload: Workload,
    material: dict,
    completed: list[tuple[Request, bytes]],
    seed: int,
    scale: float,
) -> int:
    """How many completed requests the oracle rejects (run outside the window)."""
    wrong = 0
    unsampled: list[tuple[bytes, bytes]] = []
    for (payload, expected), reply in completed:
        if expected is None:
            unsampled.append((payload, reply))
        elif reply != expected:
            wrong += 1
    if not unsampled:
        return wrong
    samples = SIGN_SAMPLES if workload.method == "sign" else COIN_SAMPLES
    samples = min(len(unsampled), max(2, round(samples * scale)))
    rng = random.Random(f"thetabench/oracle/{seed}")
    public_key = material[workload.scheme].public_key
    for payload, reply in rng.sample(unsampled, samples):
        valid = await _every_node_agrees(client, workload, payload, reply)
        if valid and workload.method == "sign":
            try:
                bls04.Bls04SignatureScheme().verify(
                    public_key, payload, bls04.Bls04Signature.from_bytes(reply)
                )
            except ThetacryptError:
                valid = False
        wrong += not valid
    return wrong
