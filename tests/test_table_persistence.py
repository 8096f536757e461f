"""Fixed-base table persistence: codec, store invalidation, warm restarts.

The contract under test: a table that survives on disk must be *exactly*
the table that was built (same lookups, same bits), anything that fails a
check is discarded and rebuilt rather than trusted, and a node restart
over a populated ``data_dir/tables/`` re-seeds the shared cache without
paying a single build (``loads`` up, ``tables_built`` flat — also visible
through the ``repro_fixedbase_*`` gauges).
"""

import asyncio
from dataclasses import replace

import pytest

from repro.errors import SerializationError, StorageError
from repro.groups import (
    FixedBaseTable,
    TableStore,
    clear_precompute_cache,
    fixed_base_table,
    fixed_pow,
    get_group,
    install_table,
    list_groups,
    precompute_stats,
    snapshot_tables,
    table_blob,
    table_from_blob,
)
from repro.groups.tables import (
    TABLE_FORMAT_VERSION,
    TABLE_SUFFIX,
    serialize_table,
    table_name,
)
from repro.storage.atomic import write_versioned

RAW_GROUPS = [
    name for name in list_groups() if getattr(get_group(name), "raw_coords", 0) > 0
]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_precompute_cache()
    yield
    clear_precompute_cache()


# ---------------------------------------------------------------------------
# Codec round-trip and tamper rejection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("group_name", RAW_GROUPS)
class TestCodec:
    def test_round_trip_is_exact(self, group_name):
        group = get_group(group_name)
        table = FixedBaseTable(group.generator())
        restored = table_from_blob(table_blob(table))
        assert restored.window == table.window
        assert restored.base == table.base
        assert restored.rows() == table.rows()
        for scalar in (0, 1, 2, group.order - 1, 0x1234567890ABCDEF):
            assert restored.pow(scalar) == table.pow(scalar)

    def test_non_generator_base_round_trips(self, group_name):
        group = get_group(group_name)
        base = group.generator() ** 7919
        table = FixedBaseTable(base)
        restored = table_from_blob(table_blob(table))
        assert restored.base == base
        assert restored.pow(12345) == base**12345

    def test_corrupt_body_rejected(self, group_name):
        group = get_group(group_name)
        blob = bytearray(table_blob(FixedBaseTable(group.generator())))
        blob[len(blob) // 2] ^= 0xFF
        # Either the container CRC or the point validation trips; both are
        # "discard" signals to the store.
        with pytest.raises((StorageError, SerializationError)):
            table_from_blob(bytes(blob))

    def test_truncated_payload_rejected(self, group_name):
        group = get_group(group_name)
        from repro.storage.atomic import pack_record

        payload = serialize_table(FixedBaseTable(group.generator()))
        with pytest.raises(SerializationError):
            table_from_blob(pack_record(payload[:-40], TABLE_FORMAT_VERSION))

    def test_wrong_version_rejected(self, group_name):
        group = get_group(group_name)
        from repro.storage.atomic import pack_record

        payload = serialize_table(FixedBaseTable(group.generator()))
        with pytest.raises(StorageError):
            table_from_blob(pack_record(payload, TABLE_FORMAT_VERSION + 1))


def test_unknown_group_rejected():
    from repro.errors import ConfigurationError
    from repro.serialization import encode_bytes, encode_str
    from repro.storage.atomic import pack_record

    payload = (
        encode_str("curve9000")
        + encode_bytes(b"\x04")
        + encode_bytes(b"\x00" * 32)
        + encode_bytes(b"")
    )
    with pytest.raises(ConfigurationError):
        table_from_blob(pack_record(payload, TABLE_FORMAT_VERSION))


def test_swapped_base_encoding_rejected():
    """A payload whose stored base bytes disagree with the rows is torn up."""
    group = get_group("ed25519")
    from repro.serialization import Reader, encode_bytes, encode_str
    from repro.storage.atomic import pack_record

    payload = serialize_table(FixedBaseTable(group.generator()))
    reader = Reader(payload)
    name, window = reader.read_str(), reader.read_bytes()
    reader.read_bytes()  # the honest base encoding
    body = reader.read_bytes()
    forged = (
        encode_str(name)
        + encode_bytes(window)
        + encode_bytes((group.generator() ** 2).to_bytes())
        + encode_bytes(body)
    )
    with pytest.raises(SerializationError):
        table_from_blob(pack_record(forged, TABLE_FORMAT_VERSION))


# ---------------------------------------------------------------------------
# TableStore: save_all idempotence, load_all discard semantics
# ---------------------------------------------------------------------------


class TestTableStore:
    def test_save_all_then_load_all(self, tmp_path):
        store = TableStore(tmp_path / "tables")
        tables = [
            FixedBaseTable(get_group(name).generator()) for name in RAW_GROUPS
        ]
        assert store.save_all(tables) == len(tables)
        # Idempotent: identical content is already on disk.
        assert store.save_all(tables) == 0
        loaded, discarded = store.load_all()
        assert discarded == 0
        assert {t.base.group.name for t in loaded} == set(RAW_GROUPS)
        by_group = {t.base.group.name: t for t in loaded}
        for table in tables:
            assert by_group[table.base.group.name].rows() == table.rows()

    def test_corrupted_file_discarded_and_unlinked(self, tmp_path):
        store = TableStore(tmp_path / "tables")
        table = FixedBaseTable(get_group("ed25519").generator())
        path = store.save(table)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x55
        path.write_bytes(bytes(raw))
        loaded, discarded = store.load_all()
        assert loaded == [] and discarded == 1
        assert not path.exists()
        # Next life simply rebuilds and re-persists.
        assert store.save_all([table]) == 1
        loaded, discarded = store.load_all()
        assert len(loaded) == 1 and discarded == 0

    def test_version_bumped_file_discarded(self, tmp_path):
        store = TableStore(tmp_path / "tables")
        table = FixedBaseTable(get_group("secp256k1").generator())
        path = store.path_for(table)
        write_versioned(path, serialize_table(table), TABLE_FORMAT_VERSION + 1)
        loaded, discarded = store.load_all()
        assert loaded == [] and discarded == 1
        assert not path.exists()

    def test_unknown_group_file_discarded(self, tmp_path):
        from repro.serialization import encode_bytes, encode_str

        store = TableStore(tmp_path / "tables")
        payload = (
            encode_str("curve9000")
            + encode_bytes(b"\x04")
            + encode_bytes(b"\x00" * 32)
            + encode_bytes(b"")
        )
        path = store.directory / f"{'0' * 32}{TABLE_SUFFIX}"
        write_versioned(path, payload, TABLE_FORMAT_VERSION)
        loaded, discarded = store.load_all()
        assert loaded == [] and discarded == 1
        assert not path.exists()

    def test_filename_is_stable_per_base(self):
        g = get_group("ed25519").generator()
        assert table_name("ed25519", g.to_bytes()) == table_name(
            "ed25519", g.to_bytes()
        )
        assert table_name("ed25519", g.to_bytes()) != table_name(
            "secp256k1", g.to_bytes()
        )


# ---------------------------------------------------------------------------
# Cache install semantics (loads vs builds)
# ---------------------------------------------------------------------------


class TestInstall:
    def test_install_counts_as_load_not_build(self):
        group = get_group("ed25519")
        table = FixedBaseTable(group.generator())
        restored = table_from_blob(table_blob(table))
        clear_precompute_cache()
        assert install_table(restored) is True
        stats = precompute_stats()
        assert stats["loads"] == 1 and stats["tables_built"] == 0
        # The cache serves from the installed table: pure hits, no builds.
        assert fixed_pow(group.generator(), 987654321) == group.generator() ** 987654321
        stats = precompute_stats()
        assert stats["hits"] == 1 and stats["tables_built"] == 0

    def test_reinstall_is_refused(self):
        table = FixedBaseTable(get_group("ed25519").generator())
        assert install_table(table) is True
        assert install_table(table) is False
        assert precompute_stats()["loads"] == 1

    def test_snapshot_reflects_installed_and_built(self):
        install_table(FixedBaseTable(get_group("ed25519").generator()))
        fixed_base_table(get_group("secp256k1").generator())
        names = {t.base.group.name for t in snapshot_tables()}
        assert names == {"ed25519", "secp256k1"}


# ---------------------------------------------------------------------------
# Node restart smoke test: zero rebuilds for seen bases
# ---------------------------------------------------------------------------


@pytest.mark.integration
def test_node_restart_rebuilds_zero_tables(tmp_path, keys_bls04, keys_cks05):
    """Life 1 builds tables under real traffic and persists them at stop;
    life 2 (same ``data_dir``, cold cache) loads every one of them and
    rebuilds zero tables for the bases life 1 saw.  Fresh traffic may
    still promote *new* bases (each life's message hashes recur within
    that life), so the accounting is by base key, not a flat zero."""
    from repro.network.local import LocalHub
    from repro.service.client import ThetacryptClient
    from repro.service.config import make_local_configs
    from repro.service.node import ThetacryptNode
    from repro.telemetry import default_registry

    key_material = {"bls04": keys_bls04, "cks05": keys_cks05}

    def configs():
        return [
            replace(c, data_dir=str(tmp_path / f"node{c.node_id}"))
            for c in make_local_configs(4, 1, transport="local", rpc_base_port=0)
        ]

    async def boot():
        hub = LocalHub()
        nodes = []
        for config in configs():
            node = ThetacryptNode(config, transport=hub.endpoint(config.node_id))
            for key_id, km in key_material.items():
                node.install_key(
                    key_id, km.scheme, km.public_key, km.share_for(config.node_id)
                )
            await node.start()
            nodes.append(node)
        client = ThetacryptClient({n.config.node_id: n.rpc_address for n in nodes})
        return nodes, client

    async def traffic(client, life):
        # Enough repetition that every recurring base (generators, public
        # keys, verification keys) crosses the promotion threshold.  The
        # messages are distinct per life: reusing them would replay the
        # durable result cache and run no crypto at all.
        for i in range(4):
            message = f"table persistence {life}.{i}".encode()
            signature = await client.sign("bls04", message)
            assert await client.verify_signature("bls04", message, signature)
            coin = await client.flip_coin("cks05", f"coin {life}.{i}".encode())
            assert len(coin) == 32

    async def shutdown(nodes, client):
        await client.close()
        for node in nodes:
            await node.stop()

    def fixedbase_gauges():
        registry = default_registry()
        registry.collect()
        return {
            stat: registry.get(f"repro_fixedbase_tables_{stat}_total").value
            for stat in ("built", "hits", "promotions", "loaded")
        }

    def cache_keys():
        return {(t.base.group.name, t.base.to_bytes()) for t in snapshot_tables()}

    async def first_life():
        nodes, client = await boot()
        try:
            await traffic(client, 1)
        finally:
            await shutdown(nodes, client)
        stats = precompute_stats()
        assert stats["tables_built"] > 0, "traffic never promoted a base"
        return stats["tables_built"], cache_keys()

    async def second_life(built_before, seen_keys):
        nodes, client = await boot()
        try:
            loaded = sum(n._recovery.get("tables_loaded", 0) for n in nodes)
            discarded = sum(n._recovery.get("tables_discarded", 0) for n in nodes)
            assert discarded == 0
            assert loaded > 0, "nothing was persisted for the second life"
            stats = precompute_stats()
            # Every table life 1 built came off disk; none was rebuilt.
            assert stats["loads"] == built_before
            assert stats["tables_built"] == 0
            assert cache_keys() == seen_keys
            # Exponentiating every seen base is pure hits, zero builds.
            for table in snapshot_tables():
                fixed_pow(table.base, 0x5EED)
            stats = precompute_stats()
            assert stats["hits"] == built_before
            assert stats["tables_built"] == 0
            await traffic(client, 2)
        finally:
            await shutdown(nodes, client)
        stats = precompute_stats()
        # The headline invariant: any table built in life 2 is for a base
        # life 1 never promoted (this life's fresh message hashes) — the
        # seen bases all came off disk and stayed resident.
        new_keys = cache_keys() - seen_keys
        assert stats["tables_built"] == len(new_keys)
        assert seen_keys <= cache_keys()
        assert stats["hits"] > built_before
        gauges = fixedbase_gauges()
        assert gauges["built"] == stats["tables_built"]
        assert gauges["loaded"] == stats["loads"] == built_before
        assert gauges["hits"] == stats["hits"]

    clear_precompute_cache()
    built, seen_keys = asyncio.run(first_life())
    for node_dir in tmp_path.glob("node*"):
        files = list((node_dir / "tables").glob(f"*{TABLE_SUFFIX}"))
        assert files, f"{node_dir.name} persisted no tables"
    clear_precompute_cache()  # simulate the fresh process of a real restart
    asyncio.run(second_life(built, seen_keys))
