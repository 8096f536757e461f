"""Write the frozen keystore fixture ``tests/fixtures/keystore_v1/``.

A 4-node ``data_root`` whose node directories hold only ``keystore.bin``
(RPRO container version 1 around the version 1 keystore JSON), with three
(1, 4) keys dealt by the trusted dealer: ``coin`` (cks05), ``cipher``
(sg02) and ``sig`` (bls04).  ``expected.json`` records what those keys
must still do: each key's public key, the coin on one name, a ciphertext
and its plaintext, and the signature of one message (coins and BLS
signatures are deterministic in the key).

    PYTHONPATH=src python tests/fixtures/write_keystore_v1.py [OUT_DIR]

The committed output was written by the build that kept key shares in
``storage/durable_keystore.py``, before ``KeyManager`` took that file over;
``tests/test_keystore_format.py`` boots a cluster over a copy of it.  The
fixture changes only together with a keystore container version bump.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.schemes import generate_keys, get_scheme
from repro.schemes.keystore import export_public_key
from repro.serialization import hexlify
from repro.service.cluster import LocalCluster

OUT = Path(__file__).resolve().parent / "keystore_v1"
KEYS = {"coin": "cks05", "cipher": "sg02", "sig": "bls04"}
COIN_NAME = b"frozen coin"
PLAINTEXT = b"frozen plaintext"
LABEL = b"frozen label"
MESSAGE = b"frozen message"


async def write(out: Path) -> None:
    keys = {key_id: generate_keys(scheme, 1, 4) for key_id, scheme in KEYS.items()}
    with tempfile.TemporaryDirectory() as data_root:
        async with LocalCluster(keys, data_root=data_root) as cluster:
            coin = await cluster.client.flip_coin("coin", COIN_NAME)
            signature = await cluster.client.sign("sig", MESSAGE)
        ciphertext = get_scheme("sg02").encrypt(
            keys["cipher"].public_key, PLAINTEXT, LABEL
        )
        if out.exists():
            shutil.rmtree(out)
        for node_id in range(1, 5):
            node_dir = out / f"node{node_id}"
            node_dir.mkdir(parents=True)
            shutil.copyfile(
                Path(data_root) / f"node{node_id}" / "keystore.bin",
                node_dir / "keystore.bin",
            )
    expected = {
        "public_keys": {
            key_id: hexlify(export_public_key(material.scheme, material.public_key))
            for key_id, material in keys.items()
        },
        "coin": {"name": hexlify(COIN_NAME), "value": hexlify(coin)},
        "cipher": {
            "ciphertext": hexlify(ciphertext.to_bytes()),
            "label": hexlify(LABEL),
            "plaintext": hexlify(PLAINTEXT),
        },
        "sig": {"message": hexlify(MESSAGE), "signature": hexlify(signature)},
    }
    (out / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    asyncio.run(write(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT))
