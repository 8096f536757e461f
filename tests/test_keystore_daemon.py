"""Keystore serialization and the standalone-daemon deployment path."""

import asyncio
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.schemes import generate_keys, get_scheme
from repro.schemes.keystore import (
    export_key_share,
    export_public_key,
    import_key_share,
    import_public_key,
    keystore_from_json,
    keystore_to_json,
    node_keystore,
)
from repro.service.config import NodeConfig, make_local_configs
from repro.service.daemon import main as daemon_main

CONFIG_V1 = Path(__file__).resolve().parent / "fixtures" / "config_v1"


class TestKeyShareSerialization:
    @pytest.mark.parametrize("scheme", ["sg02", "bls04", "kg20", "cks05", "bz03"])
    def test_round_trip(self, scheme):
        km = generate_keys(scheme, 1, 4)
        blob = export_key_share(scheme, km.share_for(2))
        restored_scheme, share = import_key_share(blob)
        assert restored_scheme == scheme
        assert share.id == 2
        assert share.value == km.share_for(2).value
        assert share.public.to_bytes() == km.public_key.to_bytes()

    def test_sh00_round_trip(self, keys_sh00):
        blob = export_key_share("sh00", keys_sh00.share_for(1))
        scheme, share = import_key_share(blob)
        assert scheme == "sh00"
        assert share.public.n == keys_sh00.public_key.n

    def test_restored_share_is_usable(self, keys_bls04):
        blob = export_key_share("bls04", keys_bls04.share_for(1))
        _, share = import_key_share(blob)
        scheme = get_scheme("bls04")
        partial = scheme.partial_sign(share, b"from restored share")
        scheme.verify_signature_share(keys_bls04.public_key, b"from restored share", partial)

    def test_public_key_round_trip(self, keys_sg02):
        blob = export_public_key("sg02", keys_sg02.public_key)
        scheme, public = import_public_key(blob)
        assert scheme == "sg02"
        # A client holding only the public part can encrypt.
        cipher = get_scheme("sg02")
        ct = cipher.encrypt(public, b"client-side", b"l")
        cipher.verify_ciphertext(keys_sg02.public_key, ct)

    def test_unknown_scheme_rejected(self, keys_bls04):
        from repro.errors import KeyManagementError

        with pytest.raises(KeyManagementError):
            export_key_share("nope", keys_bls04.share_for(1))

    def test_garbage_rejected(self):
        with pytest.raises(SerializationError):
            import_key_share(b"\x00\x01\x02")


class TestKeystoreDocument:
    def test_round_trip(self, keys_bls04, keys_cks05):
        doc = keystore_to_json(
            {
                "sig": ("bls04", keys_bls04.share_for(3)),
                "coin": ("cks05", keys_cks05.share_for(3)),
            }
        )
        restored = keystore_from_json(doc)
        assert set(restored) == {"sig", "coin"}
        assert restored["sig"][0] == "bls04"
        assert restored["sig"][1].id == 3

    def test_node_keystore_selects_right_share(self, keys_bls04):
        doc = node_keystore({"sig": keys_bls04}, node_id=2)
        restored = keystore_from_json(doc)
        assert restored["sig"][1].id == 2

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError):
            keystore_from_json("{not json")

    def test_wrong_version_rejected(self):
        with pytest.raises(SerializationError):
            keystore_from_json(json.dumps({"version": 9, "keys": {}}))


def _with(document, **keys):
    document.update(keys)
    return document


def _peer_with(document, **keys):
    document["peers"][0].update(keys)
    return document


#: Malformed ``config.json`` documents and the error each one gets: the
#: offending field is named, never a raw ``TypeError`` from a constructor.
MALFORMED = [
    (
        "a fault plan",
        lambda d: _with(d, fault_plan={"default": {"drop": 0.1}}),
        "config key 'fault_plan' must be null: chaos wraps a transport in a "
        "FaultyNetwork, got {'default': {'drop': 0.1}}",
    ),
    (
        "unknown peer key",
        lambda d: _peer_with(d, address="127.0.0.1:1"),
        "unknown PeerConfig keys: address",
    ),
    (
        "node_id a string",
        lambda d: _with(d, node_id="1"),
        "NodeConfig.node_id must be int, got '1'",
    ),
    (
        "top-level list",
        lambda d: [d],
        "NodeConfig must be a JSON object, got list",
    ),
    (
        "threshold negative",
        lambda d: _with(d, threshold=-1),
        "threshold must be >= 0, got -1",
    ),
    (
        "instance_timeout zero",
        lambda d: _with(d, instance_timeout=0),
        "instance_timeout must be > 0, got 0",
    ),
]


class TestConfigFile:
    def test_unknown_key_is_named(self):
        document = json.loads(make_local_configs(4, 1)[0].to_json())
        document["bogus"] = 1
        with pytest.raises(ConfigurationError, match="bogus"):
            NodeConfig.from_json(json.dumps(document))

    def test_config_written_before_the_worker_pool_was_removed(self):
        """``to_json`` is ``asdict``: every config ``tools/deal_keys.py``
        wrote while removed fields existed carries all of them, the worker
        pool's three or a federated node's two."""
        topology = {
            "groups": [{"group_id": "alpha", "parties": 4, "threshold": 1}],
            "vnodes": 64,
            "assignments": {},
        }
        removed = (
            (
                dict(crypto_workers=0, offload_policy="adaptive", coalesce_window=0.002),
                "unknown NodeConfig keys: coalesce_window, crypto_workers, "
                "offload_policy",
            ),
            (
                dict(group_id="alpha", topology=topology),
                "unknown NodeConfig keys: group_id, topology",
            ),
        )
        for keys, message in removed:
            document = json.loads(make_local_configs(4, 1)[0].to_json())
            document.update(keys)
            with pytest.raises(ConfigurationError) as caught:
                NodeConfig.from_json(json.dumps(document))
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "section", [{"depth": 8}, {"depth": 8, "eager": True}, {}],
        ids=["depth", "eager switch", "empty"],
    )
    def test_config_written_with_a_precompute_section(self, section):
        """Every config written while ``NodeConfig`` had ``precompute``
        carries it, as null unless the announce pipeline was on: null still
        loads, and a section is refused by name (no setting of it has a
        meaning now)."""
        document = json.loads(make_local_configs(4, 1)[0].to_json())
        document["precompute"] = None
        assert NodeConfig.from_json(json.dumps(document)) == make_local_configs(4, 1)[0]
        document["precompute"] = section
        with pytest.raises(ConfigurationError) as caught:
            NodeConfig.from_json(json.dumps(document))
        assert str(caught.value) == (
            "config key 'precompute' must be null: requests run when they are "
            "asked for; KG20 nonce pools need no setting, got " + repr(section)
        )

    def test_config_written_with_a_gossip_fanout(self):
        """Every config written while ``NodeConfig`` had ``gossip_fanout``
        carries it, null unless the gossip overlay was on: null still
        loads, and a fan-out is refused by name."""
        document = json.loads(make_local_configs(4, 1)[0].to_json())
        document["gossip_fanout"] = None
        assert NodeConfig.from_json(json.dumps(document)) == make_local_configs(4, 1)[0]
        document["gossip_fanout"] = 3
        with pytest.raises(ConfigurationError) as caught:
            NodeConfig.from_json(json.dumps(document))
        assert str(caught.value) == (
            "config key 'gossip_fanout' must be null: nodes link to every peer; "
            "there is no gossip overlay, got 3"
        )

    @pytest.mark.parametrize(
        "key,written,refused,message",
        [
            (
                "tob_sequencer", 1, 2,
                "config key 'tob_sequencer' must be 1: node 1 sequences the "
                "built-in TOB, got 2",
            ),
            (
                "tob_block_interval", 0.0, 0.02,
                "config key 'tob_block_interval' must be 0.0: the built-in TOB "
                "stamps each submission at once, got 0.02",
            ),
            (
                "tob_sequencer", 1, True,
                "config key 'tob_sequencer' must be 1: node 1 sequences the "
                "built-in TOB, got True",
            ),
            (
                "enable_tob", True, 1,
                "config key 'enable_tob' must be true: every node runs the "
                "built-in TOB, got 1",
            ),
            (
                "enable_tob", True, False,
                "config key 'enable_tob' must be true: every node runs the "
                "built-in TOB, got False",
            ),
            (
                "drain_timeout", 5.0, 30.0,
                "config key 'drain_timeout' must be 5.0: a stopping daemon "
                "drains for a fixed 5 s, got 30.0",
            ),
            (
                "fault_plan", None, {"seed": 1},
                "config key 'fault_plan' must be null: chaos wraps a transport "
                "in a FaultyNetwork, got {'seed': 1}",
            ),
        ],
    )
    def test_config_written_with_the_tob_knobs(self, key, written, refused, message):
        """Every config ``tools/deal_keys.py`` wrote while ``NodeConfig`` had
        a retired key carries it at the one value every such config held
        (the TOB knobs, ``enable_tob``, ``drain_timeout``, ``fault_plan``):
        that value still loads, any other is refused by name.  A JSON
        ``true`` stands only for a bool key, and a bool only for a bool."""
        document = json.loads(make_local_configs(4, 1)[0].to_json())
        document[key] = written
        assert NodeConfig.from_json(json.dumps(document)) == make_local_configs(4, 1)[0]
        document[key] = refused
        with pytest.raises(ConfigurationError) as caught:
            NodeConfig.from_json(json.dumps(document))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "name,data_dir",
        [("memory", None), ("durable", "deployment/node1/data")],
    )
    def test_frozen_config_v1_loads(self, name, data_dir):
        """Node 1's ``config.json`` as ``tools/deal_keys.py`` wrote it while
        ``NodeConfig`` still had ``enable_tob``, ``fault_plan`` and
        ``drain_timeout`` (``tests/fixtures/write_config_v1.py``) loads into
        the config ``make_local_configs`` builds now."""
        text = (CONFIG_V1 / f"{name}.json").read_text()
        expected = replace(make_local_configs(4, 1)[0], data_dir=data_dir)
        assert NodeConfig.from_json(text) == expected

    @pytest.mark.parametrize(
        "edit,message",
        [row[1:] for row in MALFORMED],
        ids=[row[0] for row in MALFORMED],
    )
    def test_malformed_config_names_the_field(self, edit, message):
        document = json.loads(make_local_configs(4, 1)[0].to_json())
        with pytest.raises(ConfigurationError) as caught:
            NodeConfig.from_json(json.dumps(edit(document)))
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "keystore,problem",
    [
        ("[1]", "keystore.json is a JSON list, not an object"),
        ('{"version": 1, "keys": {"c": 5}}', "keystore.json: key 'c' is not a hex string"),
    ],
    ids=["a list", "a number for a share"],
)
def test_daemon_refuses_a_malformed_keystore_by_name(tmp_path, keystore, problem):
    """The daemon exits with one line naming the file and the problem."""
    (tmp_path / "config.json").write_text(make_local_configs(4, 1)[0].to_json())
    (tmp_path / "keystore.json").write_text(keystore)
    with pytest.raises(SystemExit) as caught:
        daemon_main(
            ["--config", str(tmp_path / "config.json"),
             "--keystore", str(tmp_path / "keystore.json")]
        )
    assert caught.value.code.startswith("cannot start node: SerializationError: ")
    assert problem in caught.value.code


@pytest.mark.integration
def test_daemon_deployment_end_to_end(tmp_path):
    """Deal keys with the CLI, start real daemon processes, sign over TCP."""
    deal = subprocess.run(
        [
            sys.executable,
            "tools/deal_keys.py",
            "--parties", "4",
            "--threshold", "1",
            "--schemes", "bls04,cks05",
            "--base-port", "19700",
            "--rpc-base-port", "19800",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert deal.returncode == 0, deal.stderr
    assert (tmp_path / "public_keys.json").exists()

    daemons = []
    try:
        for node_id in range(1, 5):
            daemons.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.service.daemon",
                        "--config", str(tmp_path / f"node{node_id}" / "config.json"),
                        "--keystore", str(tmp_path / f"node{node_id}" / "keystore.json"),
                    ],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )

        async def drive():
            from repro.errors import RpcError
            from repro.service.client import ThetacryptClient

            client = ThetacryptClient(
                {i: ("127.0.0.1", 19800 + i) for i in range(1, 5)}
            )
            # Daemons need a moment to bind their sockets (longer when the
            # machine is busy running other suites).
            for node_id in range(1, 5):
                for attempt in range(150):
                    try:
                        await client.call(node_id, "ping", {})
                        break
                    except (OSError, RpcError):
                        await asyncio.sleep(0.2)
                else:
                    raise AssertionError(f"daemon {node_id} never came up")
            signature = await client.sign("bls04", b"daemon-signed")
            assert await client.verify_signature("bls04", b"daemon-signed", signature)
            coin = await client.flip_coin("cks05", b"daemon-coin")
            assert len(coin) == 32
            await client.close()

        asyncio.run(drive())
    finally:
        for daemon in daemons:
            daemon.terminate()
        for daemon in daemons:
            daemon.wait(timeout=10)
