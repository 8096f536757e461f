"""Yesterday's keystore boots today: the frozen ``keystore_v1`` fixture.

``tests/fixtures/keystore_v1/`` is a 4-node ``data_root`` written by an
earlier build (``tests/fixtures/write_keystore_v1.py``): only
``keystore.bin`` per node, holding a cks05, an sg02 and a bls04 key.  A
build that changes the keystore format must still read it, or bump the
container version and refuse it by name; never misread it.  These tests
are not edited when the code that reads the keystore changes.
"""

import asyncio
import json
import shutil
from pathlib import Path

import pytest

from repro.schemes import get_scheme
from repro.schemes.bls04 import Bls04Signature
from repro.schemes.keystore import export_public_key, import_public_key
from repro.serialization import unhexlify
from repro.service.cluster import LocalCluster

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "keystore_v1"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())


def _data_root(tmp_path: Path) -> Path:
    root = tmp_path / "data_root"
    shutil.copytree(FIXTURE, root)
    return root


def _public_hex(entry) -> str:
    return export_public_key(entry.scheme, entry.public_key).hex()


@pytest.mark.integration
class TestFrozenKeystore:
    def test_every_key_loads_and_serves(self, tmp_path):
        async def scenario():
            async with LocalCluster({}, data_root=_data_root(tmp_path)) as cluster:
                for node in cluster.nodes:
                    held = {
                        entry.key_id: _public_hex(entry)
                        for entry in node.keys.list_keys()
                    }
                    assert held == EXPECTED["public_keys"]
                    assert node.stats()["recovery"]["keys"] == 3
                client = cluster.client
                coin = EXPECTED["coin"]
                assert await client.flip_coin(
                    "coin", unhexlify(coin["name"])
                ) == unhexlify(coin["value"])
                cipher = EXPECTED["cipher"]
                assert await client.decrypt(
                    "cipher",
                    unhexlify(cipher["ciphertext"]),
                    unhexlify(cipher["label"]),
                ) == unhexlify(cipher["plaintext"])
                sig = EXPECTED["sig"]
                signature = await client.sign("sig", unhexlify(sig["message"]))
                assert signature == unhexlify(sig["signature"])
                _, public = import_public_key(unhexlify(EXPECTED["public_keys"]["sig"]))
                get_scheme("bls04").verify(
                    public,
                    unhexlify(sig["message"]),
                    Bls04Signature.from_bytes(signature),
                )

        asyncio.run(scenario())

    def test_a_loaded_snapshot_is_rewritten_byte_identical(self, tmp_path):
        """Re-installing a held share rewrites ``keystore.bin``: the new
        file is the frozen one, byte for byte (same key order, same share
        encodings, same container)."""
        root = _data_root(tmp_path)

        async def scenario():
            async with LocalCluster({}, data_root=root) as cluster:
                for node in cluster.nodes:
                    entry = node.keys.get("coin")
                    node.keys.replace("coin", entry.public_key, entry.key_share)

        asyncio.run(scenario())
        for node_id in range(1, 5):
            written = (root / f"node{node_id}" / "keystore.bin").read_bytes()
            frozen = (FIXTURE / f"node{node_id}" / "keystore.bin").read_bytes()
            assert written == frozen
