"""Exact per-request operation counts on a 4-node in-process Θ-network.

Counts repeat exactly where timings do not, so a change that quietly adds
a pairing check or a scalar multiplication to a request shows up here.
Each row is one request shape; the counters are test-local wrappers around
the kernel entry points, active only while the request runs.  A change
that moves a count edits its row and says why.
"""

import asyncio
import importlib
from collections import Counter

import pytest

from repro.core.orchestration import PrecomputeConfig
from repro.groups.base import Group
from repro.groups.bn254.g1 import BN254G1Element
from repro.serialization import hexlify, unhexlify
from repro.service.cluster import LocalCluster

# The package re-exports the function ``pairing_check`` over its submodule.
_PAIRING = importlib.import_module("repro.groups.bn254.pairing")

#: One BLS04 signature, t = 1, n = 4, asked of every node: each node signs
#: its share (one G1 ``**``), combines t + 1 shares (one G1 ``multi_exp``)
#: and verifies the result (one two-pair ``pairing_check``); shares are
#: admitted unverified.
BLS04_SIGN = {"g1_pow": 4, "g1_multi_exp": 4, "pairing_check": 4}


@pytest.fixture
def counts(monkeypatch):
    counted = Counter()
    pow_, multi_exp, pairing_check = (
        BN254G1Element.__pow__,
        Group.multi_exp,
        _PAIRING.pairing_check,
    )

    def counting_pow(self, scalar):
        counted["g1_pow"] += 1
        return pow_(self, scalar)

    def counting_multi_exp(self, *args, **kwargs):
        if self.name == "bn254g1":
            counted["g1_multi_exp"] += 1
        return multi_exp(self, *args, **kwargs)

    def counting_pairing_check(pairs):
        counted["pairing_check"] += 1
        return pairing_check(pairs)

    monkeypatch.setattr(BN254G1Element, "__pow__", counting_pow)
    monkeypatch.setattr(Group, "multi_exp", counting_multi_exp)
    monkeypatch.setattr(_PAIRING, "pairing_check", counting_pairing_check)
    return counted


def test_one_bls04_signature(keys_bls04, counts):
    message = b"count me once"

    async def scenario():
        async with LocalCluster({"bls04": keys_bls04}) as cluster:
            counts.clear()  # booting the nodes is not the request
            replies = await cluster.client.broadcast(
                "sign", {"key_id": "bls04", "data": hexlify(message)}
            )
            return dict(counts), replies

    counted, replies = asyncio.run(scenario())
    signatures = {unhexlify(reply["result"]) for reply in replies.values()}
    assert len(replies) == 4 and len(signatures) == 1
    assert counted == BLS04_SIGN


def test_one_bls04_signature_whose_announce_is_overtaken(keys_bls04, counts):
    """The signature is requested while its announce is still queued (the
    pipeline is held until every node has answered): the announce folds
    into the request's instance and adds nothing to the row."""
    message = b"count me once, announced"

    async def scenario():
        async with LocalCluster(
            {"bls04": keys_bls04}, precompute=PrecomputeConfig(depth=4)
        ) as cluster:
            nodes = cluster.nodes
            gate = asyncio.Event()
            for node in nodes:
                node._precompute._pace = gate.wait
            counts.clear()
            announce = asyncio.ensure_future(
                cluster.client.precompute("bls04", items=[message])
            )
            for _ in range(400):
                if all(node._precompute._pending_ids for node in nodes):
                    break
                await asyncio.sleep(0.01)
            replies = await cluster.client.broadcast(
                "sign", {"key_id": "bls04", "data": hexlify(message)}
            )
            gate.set()
            reports = await announce
            return dict(counts), replies, reports

    counted, replies, reports = asyncio.run(scenario())
    signatures = {unhexlify(reply["result"]) for reply in replies.values()}
    assert len(replies) == 4 and len(signatures) == 1
    assert counted == BLS04_SIGN
    assert all(r == {"duplicate": 1, "depth": {}} for r in reports.values())
