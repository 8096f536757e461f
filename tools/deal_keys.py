#!/usr/bin/env python3
"""Trusted-dealer CLI: generate configs and keystores for a Θ-network.

Usage::

    python3 tools/deal_keys.py --parties 4 --threshold 1 \
        --schemes bls04,sg02,cks05 --out deployment/

writes, under ``deployment/``:

* ``node<i>/config.json``   — NodeConfig for each node (TCP transport);
* ``node<i>/keystore.json`` — that node's private key shares;
* ``public_keys.json``     — key id → public key, for clients.

``--keys tenant-a/sg02,tenant-b/sg02`` deals namespaced key ids instead;
each key id's scheme is the segment after its last ``/``.  Start the
nodes with ``python3 -m repro.service.daemon``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ConfigurationError  # noqa: E402
from repro.schemes import generate_keys  # noqa: E402
from repro.schemes.keystore import export_public_key, node_keystore  # noqa: E402
from repro.serialization import hexlify  # noqa: E402
from repro.service.config import make_local_configs  # noqa: E402


def scheme_of(key_id: str) -> str:
    """``tenant/app/bls04`` → ``bls04``; bare scheme names pass through."""
    return key_id.rsplit("/", 1)[-1]


def deal(args, key_ids) -> None:
    material = {
        key_id: generate_keys(
            scheme_of(key_id), args.threshold, args.parties, rsa_bits=args.rsa_bits
        )
        for key_id in key_ids
    }
    configs = make_local_configs(
        args.parties,
        args.threshold,
        base_port=args.base_port,
        rpc_base_port=args.rpc_base_port,
        host=args.host,
    )
    out = pathlib.Path(args.out)
    if args.data_dir:
        configs = [
            replace(c, data_dir=str(out / f"node{c.node_id}" / "data"))
            for c in configs
        ]
    for config in configs:
        node_dir = out / f"node{config.node_id}"
        node_dir.mkdir(parents=True, exist_ok=True)
        (node_dir / "config.json").write_text(config.to_json())
        (node_dir / "keystore.json").write_text(
            node_keystore(material, config.node_id)
        )
    public = {
        key_id: {
            "scheme": km.scheme,
            "public_key": hexlify(export_public_key(km.scheme, km.public_key)),
        }
        for key_id, km in material.items()
    }
    (out / "public_keys.json").write_text(json.dumps(public, indent=2))
    print(
        f"dealt {len(key_ids)} keys for a {args.threshold + 1}-of-{args.parties} "
        f"network under {out}/"
    )
    print("start nodes with:")
    for config in configs:
        print(
            f"  python3 -m repro.service.daemon "
            f"--config {out}/node{config.node_id}/config.json "
            f"--keystore {out}/node{config.node_id}/keystore.json"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--parties", type=int, default=4)
    parser.add_argument("--threshold", type=int, default=1)
    parser.add_argument(
        "--schemes", default="bls04,sg02,cks05",
        help="comma-separated scheme list (key id = scheme name)",
    )
    parser.add_argument(
        "--keys", default="",
        help="comma-separated key ids, e.g. tenant-a/sg02 (scheme = last "
        "path segment); overrides --schemes",
    )
    parser.add_argument("--rsa-bits", type=int, default=2048)
    parser.add_argument("--base-port", type=int, default=17000)
    parser.add_argument("--rpc-base-port", type=int, default=18000)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--out", default="deployment")
    parser.add_argument(
        "--data-dir",
        action="store_true",
        help="give every node a durable data_dir (out/node<i>/data) so "
        "it persists keys/results and runs crash recovery on restart "
        "(docs/robustness.md)",
    )
    args = parser.parse_args()

    raw = args.keys if args.keys else args.schemes
    key_ids = [k.strip() for k in raw.split(",") if k.strip()]
    if not key_ids:
        raise ConfigurationError("no keys requested")
    deal(args, key_ids)


if __name__ == "__main__":
    main()
