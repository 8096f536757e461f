"""Exact per-request operation counts on a 4-node in-process Θ-network.

Counts repeat exactly where timings do not, so a change that quietly adds
a pairing check or a scalar multiplication to a request shows up here.
Each row is one request shape; the counters are test-local wrappers around
the kernel entry points, active only while the request runs.  One more row
counts the field-arithmetic calls inside one pairing check, the operation
the pairing schemes' requests are made of.  A change that moves a count
edits its row and says why.
"""

import asyncio
import importlib
from collections import Counter

import pytest

from repro.core.orchestration import derive_instance_id
from repro.groups.base import Group
from repro.groups.bn254 import bn254_g1, bn254_g2
from repro.groups.bn254.g1 import BN254G1Element, BN254G1Group
from repro.groups.ed25519 import Ed25519Element, Ed25519Group
from repro.groups.precompute import PrecomputeCache, clear_precompute_cache
from repro.schemes import bls04, cks05, get_scheme
from repro.serialization import hexlify, unhexlify
from repro.service.cluster import LocalCluster

# The package re-exports the functions ``pairing`` and ``pairing_check``
# over their submodule.
_PAIRING = importlib.import_module("repro.groups.bn254.pairing")

#: One BLS04 signature, t = 1, n = 4, asked of every node: each node signs
#: its share (one G1 ``**``), combines t + 1 shares (one G1 ``multi_exp``)
#: and verifies the result (one two-pair ``pairing_check``); shares are
#: admitted unverified.
BLS04_SIGN = {"g1_pow": 4, "g1_multi_exp": 4, "pairing_check": 4}

#: One BZ03 decryption, t = 1, n = 4, asked of every node: each node checks
#: the ciphertext once (one two-pair ``pairing_check``), makes its share
#: (one G1 ``**``), checks the one peer share it combines with it (one
#: two-pair ``pairing_check``), combines them (one G1 ``multi_exp``) and
#: unmasks the key with one ``pair``.  BZ03 is the other scheme on the
#: BN254 pairing kernel.
BZ03_DECRYPT = {"pairing_check": 8, "pair": 4, "g1_pow": 4, "g1_multi_exp": 4}

#: One CKS05 coin, t = 1, n = 4, asked of every node: each node makes its
#: share with a DLEQ proof and verifies the one peer share it combines.
#: Was 8 ``**`` and is none: ĝ^{x_i} and the DLEQ commitment ĝ^r were two
#: ``**`` a node and are now one ``powers`` call on a shared doubling run.
CKS05_COIN = {"ed25519_powers": 4, "ed25519_decode": 4, "fixed_pow": 12}

#: One SG02 decryption, t = 1, n = 4, asked of every node: each node checks
#: the ciphertext's CCA proof once, makes its share with a DLEQ proof and
#: verifies the one peer share it combines.  Was 16 ``**``: u^−e (the
#: proof check), u^{x_i} and the DLEQ commitment u^r were three of a
#: node's four; they are now one ``powers`` call, and ū^−e stays ``**``.
SG02_DECRYPT = {"ed25519_pow": 4, "ed25519_powers": 4, "ed25519_decode": 12, "fixed_pow": 20}

#: One node's own part of one CKS05 coin: it makes its share, verifies the
#: one peer share it combines with it and combines them.  The coin name is
#: hashed onto the group once; the verify reads the memoized point.
CKS05_NODE_HASHES = {"ed25519_hash": 1}

#: One node's own part of one BLS04 signature: it signs its share and
#: combines it with one peer share, verifying the result.  The message is
#: hashed onto G1 once; the verify reads the memoized point.
BLS04_NODE_HASHES = {"g1_hash": 1}

#: One DKG, t = 1, n = 4, run by every node for a new cks05 key: each
#: node deals a degree-1 polynomial (2 ``**``), decodes the 2 commitments of
#: each of its 3 peers' deals, checks the 4 sub-shares it holds (3 ``**``
#: each) and derives the 4 verification keys (2 ``**`` each): 22 ``**`` and
#: 6 decodes a node.  No base is long-lived enough for a fixed-base table.
DKG_RUN = {"ed25519_pow": 88, "ed25519_decode": 24, "fixed_pow": 0}

#: One proactive refresh of a cks05 key, t = 1, n = 4: dealers 1 and 2
#: deal (2 ``**`` each); every node checks the 2 sub-shares it holds
#: (3 ``**`` each) and derives the 4 verification keys (2 ``**`` each).
#: A dealer decodes its one peer deal, a non-dealer both.
REFRESH_RUN = {"ed25519_pow": 60, "ed25519_decode": 12, "fixed_pow": 0}

#: Kernel calls of one two-pair ``pairing_check`` whose G2 arguments have
#: their lines: the Miller loop squares f at 64 of its 65 signed digits
#: (f = 1 at the first) and multiplies in 88 lines per pair; the final
#: exponentiation raises to x three times (62 squarings down the signed
#: windows, one for f², 3 products for f³, f⁵, f⁷, 13 for the digits)
#: around the Devegili–Scott–Dahab chain's 4 squarings and 15 products.
PAIRING_CHECK_KERNEL = {
    "fp12_sqr": 64,
    "line_product": 176,
    "cyclotomic_sqr": 3 * 63 + 4,
    "fp12_mul": 3 * 16 + 15,
}


def _count(monkeypatch, counted, key, owner, name, when=lambda *args: True):
    """Count the calls of ``owner.name`` (those ``when`` accepts) under ``key``."""
    original = getattr(owner, name)

    def counting(*args):
        if when(*args):
            counted[key] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


@pytest.fixture
def counts(monkeypatch):
    counted = Counter()
    for key, owner, name in (
        ("g1_pow", BN254G1Element, "__pow__"),
        ("pairing_check", _PAIRING, "pairing_check"),
        ("pair", _PAIRING, "pairing"),
        ("ed25519_pow", Ed25519Element, "__pow__"),
        ("ed25519_powers", Ed25519Element, "powers"),
        ("ed25519_decode", Ed25519Group, "element_from_bytes"),
        ("fixed_pow", PrecomputeCache, "pow"),
    ):
        _count(monkeypatch, counted, key, owner, name)
    _count(
        monkeypatch, counted, "g1_multi_exp", Group, "multi_exp",
        when=lambda group, *args: group.name == "bn254g1",
    )
    return counted


async def _broadcast(
    keys: dict, method: str, data: bytes, counted: Counter
) -> tuple[dict, dict]:
    """The counts and per-node replies of ``method`` on ``data`` asked of
    every node; the counts cover only that request.

    The nodes are cold: ``fixed_pow`` builds a long-lived base's table on
    its first use, from ``*`` alone, so a cold request counts as a warm one.
    """
    (key_id,) = keys
    async with LocalCluster(keys) as cluster:
        clear_precompute_cache()
        counted.clear()  # booting the nodes is not the request
        replies = await cluster.client.broadcast(
            method, {"key_id": key_id, "data": hexlify(data)}
        )
        return dict(counted), replies


def test_one_bls04_signature(keys_bls04, counts):
    message = b"count me once"
    counted, replies = asyncio.run(
        _broadcast({"bls04": keys_bls04}, "sign", message, counts)
    )
    signatures = {unhexlify(reply["result"]) for reply in replies.values()}
    assert len(replies) == 4 and len(signatures) == 1
    assert counted == BLS04_SIGN


def test_one_bz03_decryption(keys_bz03, counts):
    ciphertext = get_scheme("bz03").encrypt(keys_bz03.public_key, b"count me", b"")
    counted, replies = asyncio.run(
        _broadcast({"bz03": keys_bz03}, "decrypt", ciphertext.to_bytes(), counts)
    )
    assert {unhexlify(reply["result"]) for reply in replies.values()} == {b"count me"}
    assert len(replies) == 4 and counted == BZ03_DECRYPT


def test_one_cks05_coin(keys_cks05, counts):
    counted, replies = asyncio.run(
        _broadcast({"cks05": keys_cks05}, "flip_coin", b"coin", counts)
    )
    assert len(replies) == 4 and len({r["result"] for r in replies.values()}) == 1
    assert counted == CKS05_COIN


def test_one_sg02_decryption(keys_sg02, counts):
    plaintext = bytes(range(256)) * 16  # thetabench's 4 KiB payload
    ciphertext = get_scheme("sg02").encrypt(keys_sg02.public_key, plaintext, b"")
    counted, replies = asyncio.run(
        _broadcast({"sg02": keys_sg02}, "decrypt", ciphertext.to_bytes(), counts)
    )
    assert {unhexlify(reply["result"]) for reply in replies.values()} == {plaintext}
    assert len(replies) == 4 and counted == SG02_DECRYPT


def _one_node(monkeypatch, key, owner, memo, peer_share, node_share) -> dict:
    """The hash counts of ``node_share()`` alone, with ``peer_share()``'s
    work done before and the process-wide memo (which every in-process
    node shares) emptied in between."""
    peer = peer_share()
    memo.cache_clear()
    counted = Counter()
    _count(monkeypatch, counted, key, owner, "hash_to_element")
    node_share(peer)
    return dict(counted)


def test_one_node_hashes_a_coin_name_once(keys_cks05, monkeypatch):
    coin, name = get_scheme("cks05"), b"hashed once at node 1"

    def node_1(peer):
        own = coin.create_coin_share(keys_cks05.share_for(1), name)
        coin.verify_coin_share(keys_cks05.public_key, name, peer)
        coin.combine(keys_cks05.public_key, name, [own, peer])

    counted = _one_node(
        monkeypatch, "ed25519_hash", Ed25519Group, cks05._hash_name,
        lambda: coin.create_coin_share(keys_cks05.share_for(2), name), node_1,
    )
    assert counted == CKS05_NODE_HASHES


def test_one_node_hashes_a_bls04_message_once(keys_bls04, monkeypatch):
    bls, message = get_scheme("bls04"), b"hashed once at node 1"

    def node_1(peer):
        own = bls.partial_sign(keys_bls04.share_for(1), message)
        bls.combine(keys_bls04.public_key, message, [own, peer])

    counted = _one_node(
        monkeypatch, "g1_hash", BN254G1Group, bls04._hash_message,
        lambda: bls.partial_sign(keys_bls04.share_for(2), message), node_1,
    )
    assert counted == BLS04_NODE_HASHES


async def _cold_call(keys: dict, call, counted: Counter) -> dict:
    """The counts of ``call(client)`` alone on a cold cluster."""
    async with LocalCluster(keys) as cluster:
        clear_precompute_cache()
        counted.clear()
        await call(cluster.client)
        return dict(counted)


def test_one_dkg(counts):
    counted = asyncio.run(
        _cold_call({}, lambda client: client.run_dkg("dkg", scheme="cks05"), counts)
    )
    assert Counter(counted) == Counter(DKG_RUN)


def test_one_refresh(keys_cks05, counts):
    counted = asyncio.run(
        _cold_call(
            {"coin": keys_cks05}, lambda client: client.refresh_key("coin"), counts
        )
    )
    assert Counter(counted) == Counter(REFRESH_RUN)


def test_one_two_pair_pairing_check_in_the_kernel(monkeypatch):
    g1, g2 = bn254_g1().generator(), bn254_g2().generator()
    y = g2**0xC0FFEE
    pairs = [(g1**0xC0FFEE, g2), (g1.inverse(), y)]
    assert _PAIRING.pairing_check(pairs)  # builds both tables
    counted = Counter()
    for key, name in (
        ("fp12_sqr", "fp12_sqr"),
        ("line_product", "fp12_mul_line"),
        ("cyclotomic_sqr", "fp12_cyclotomic_sqr"),
        ("fp12_mul", "fp12_mul"),
    ):
        _count(monkeypatch, counted, key, _PAIRING, name)
    assert _PAIRING.pairing_check(pairs)
    assert counted == PAIRING_CHECK_KERNEL


def test_one_bls04_signature_asked_again_while_in_flight(keys_bls04, counts):
    """The same signature request is sent twice, the second time while
    every node still runs the first (links of 0.2 s keep each node waiting
    for a peer share): the repeat folds into the running instance, so each
    node ends one instance and the row is unchanged.  This is how a client
    starts work early: it sends the request and awaits it later."""
    message = b"count me once, asked twice"
    params = {"key_id": "bls04", "data": hexlify(message)}
    instance_id = derive_instance_id("sign", "bls04", message)

    async def scenario():
        async with LocalCluster({"bls04": keys_bls04}, latency=0.2) as cluster:
            nodes, client = cluster.nodes, cluster.client
            clear_precompute_cache()
            counts.clear()
            first = asyncio.ensure_future(client.broadcast("sign", params))
            for _ in range(400):
                if all(n.instances.active_count for n in nodes):
                    break
                await asyncio.sleep(0.005)
            second = await client.broadcast("sign", params)
            first = await first
            folded = [
                n.instances.metrics.coalesced_requests.labels("inflight").value
                for n in nodes
            ]
            ended = [n.stats()["instances"] for n in nodes]
            records = [n.instances.record(instance_id).status.value for n in nodes]
            return dict(counts), first, second, folded, ended, records

    counted, first, second, folded, ended, records = asyncio.run(scenario())
    signatures = {
        unhexlify(reply["result"]) for replies in (first, second)
        for reply in replies.values()
    }
    assert len(first) == len(second) == 4 and len(signatures) == 1
    assert counted == BLS04_SIGN
    assert folded == [1, 1, 1, 1]
    assert ended == [{"finished": 1}] * 4 and records == ["finished"] * 4
