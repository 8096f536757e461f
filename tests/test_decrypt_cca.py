"""Decryption's CCA check: once per node, before any share leaves it.

The ciphertext proof is checked in ``create_decryption_share`` (reached
through ``DecryptOperation.create_own_share``), and the schemes' ``combine``
trusts that it was.  These tests pin the three things that makes safe:
decryption admits peer shares eagerly, a hostile ciphertext earns no share
on any path a node can take, and the bytes a decrypt returns are frozen.
"""

import asyncio
import hashlib
import random
import secrets

import pytest

from repro.core.orchestration import derive_instance_id
from repro.core.protocols.operations import (
    DecryptOperation,
    OperationRequest,
    make_operation,
)
from repro.errors import InvalidCiphertextError, RpcError
from repro.schemes import bz03, sg02
from repro.service.cluster import LocalCluster


def test_decryption_admits_peer_shares_eagerly():
    """ChaCha20-Poly1305 is not key-committing, so the AEAD tag cannot
    judge a quorum: an encryptor who knows r and one byzantine node can
    make two quorums open one payload to two plaintexts.  Only the
    per-share DLEQ / pairing check rules that out (docs/robustness.md,
    "Why decryption stays eager")."""
    assert DecryptOperation.self_verifying is False


# ---------------------------------------------------------------------------
# A hostile ciphertext never earns a share
# ---------------------------------------------------------------------------


def _sg02_hostile(public, ct, case):
    if case == "flipped proof":
        e = (ct.e + 1) % public.group.order
        return sg02.Sg02Ciphertext(
            ct.label, ct.masked_key, ct.u, ct.u_bar, e, ct.f, ct.nonce, ct.payload
        )
    if case == "swapped label":
        return sg02.Sg02Ciphertext(
            b"swapped", ct.masked_key, ct.u, ct.u_bar, ct.e, ct.f, ct.nonce,
            ct.payload,
        )
    return sg02.Sg02Ciphertext(
        ct.label, ct.masked_key, ct.u * public.group.generator(), ct.u_bar,
        ct.e, ct.f, ct.nonce, ct.payload,
    )


def _bz03_hostile(public, ct, case):
    g1 = public.pairing.g1.generator()
    if case == "flipped proof":
        return bz03.Bz03Ciphertext(
            ct.label, ct.u, ct.masked_key, ct.w * g1, ct.nonce, ct.payload
        )
    if case == "swapped masked key":
        return bz03.Bz03Ciphertext(
            ct.label, ct.u, bytes(32), ct.w, ct.nonce, ct.payload
        )
    return bz03.Bz03Ciphertext(
        ct.label, ct.u**2, ct.masked_key, ct.w, ct.nonce, ct.payload
    )


_HOSTILE = {
    "sg02": (sg02.Sg02Cipher(), _sg02_hostile),
    "bz03": (bz03.Bz03Cipher(), _bz03_hostile),
}
_CASES = [
    ("sg02", "flipped proof"),
    ("sg02", "swapped label"),
    ("sg02", "mutated u"),
    ("bz03", "flipped proof"),
    ("bz03", "swapped masked key"),
    ("bz03", "mutated u"),
]


@pytest.mark.integration
@pytest.mark.parametrize("path", ["inline"])
@pytest.mark.parametrize("scheme,case", _CASES)
def test_hostile_ciphertext_earns_no_share(scheme, case, path, keys_sg02, keys_bz03):
    """Every node aborts with a structured reason and sends no frame: no
    decryption share leaves any node."""
    keys = {"sg02": keys_sg02, "bz03": keys_bz03}[scheme]
    cipher, mutate = _HOSTILE[scheme]
    good = cipher.encrypt(keys.public_key, b"never decrypted", b"label")
    hostile = mutate(keys.public_key, good, case).to_bytes()

    async def scenario():
        async with LocalCluster({scheme: keys}) as cluster:
            nodes, client = cluster.nodes, cluster.client
            frames: list[tuple[int, int]] = []
            deliver = cluster.hub._deliver

            def spy(src, dst, data):
                frames.append((src, dst))
                deliver(src, dst, data)

            cluster.hub._deliver = spy
            with pytest.raises(RpcError):
                await client.decrypt(scheme, hostile)
            instance_id = derive_instance_id("decrypt", scheme, hostile, b"")
            for node in nodes:
                record = node.instances.record(instance_id)
                assert record.status.value == "failed"
                assert record.abort_reason == "byzantine_detected"
                assert "ciphertext" in record.error
            assert frames == []

    asyncio.run(scenario())


@pytest.mark.parametrize("scheme,case", _CASES)
def test_supplied_share_cannot_stand_in_for_the_check(
    scheme, case, keys_sg02, keys_bz03
):
    """Every share of this party is built by ``create_own_share()``, and
    the check runs there first: for a hostile ciphertext it raises and
    stores nothing, so there is no share any path could hand over."""
    keys = {"sg02": keys_sg02, "bz03": keys_bz03}[scheme]
    cipher, mutate = _HOSTILE[scheme]
    good = cipher.encrypt(keys.public_key, b"never decrypted", b"label")
    hostile = mutate(keys.public_key, good, case)
    with pytest.raises(InvalidCiphertextError):
        cipher.verify_ciphertext(keys.public_key, hostile)
    operation = make_operation(
        scheme, keys.public_key, keys.share_for(1),
        OperationRequest("decrypt", hostile.to_bytes()),
    )
    with pytest.raises(InvalidCiphertextError):
        operation.create_own_share()
    assert operation.share_count == 0


# ---------------------------------------------------------------------------
# Frozen transcript through DecryptOperation
# ---------------------------------------------------------------------------

#: SHA-256 of the ciphertext a seeded SG02 keygen + encrypt produces.
SG02_OPERATION_CIPHERTEXT_SHA256 = (
    "ed5745bfca47e25e2d49f5a97a631ef05c968cad84cd4ec23a05b051699b0fcd"
)
SG02_OPERATION_PLAINTEXT = bytes(range(256)) * 4 + b"and a ragged tail"


def test_frozen_sg02_decrypt_through_the_operation(monkeypatch):
    """A fixed-seed SG02 decrypt through two parties' ``DecryptOperation``s
    returns the same bytes as before the lane-packed ChaCha20 kernel, from
    the same ciphertext bytes (the payload spans 17 keystream blocks)."""
    rng = random.Random(20261015)
    monkeypatch.setattr(secrets, "randbelow", rng.randrange)
    monkeypatch.setattr(secrets, "token_bytes", lambda n=32: rng.randbytes(n))
    monkeypatch.setattr(secrets, "randbits", rng.getrandbits)
    public, key_shares = sg02.keygen(1, 4)
    ciphertext = sg02.Sg02Cipher().encrypt(
        public, SG02_OPERATION_PLAINTEXT, b"frozen"
    ).to_bytes()
    assert hashlib.sha256(ciphertext).hexdigest() == SG02_OPERATION_CIPHERTEXT_SHA256
    request = OperationRequest("decrypt", ciphertext, b"frozen")
    first, second = (
        make_operation("sg02", public, key_shares[i], request) for i in (0, 2)
    )
    first.create_own_share()
    first.accept_share(second.create_own_share())
    assert first.have_quorum
    assert first.result() == SG02_OPERATION_PLAINTEXT
