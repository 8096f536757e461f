"""Telemetry integration: the metrics RPC/HTTP endpoints of a live Θ-network
and trace-context propagation across a full multi-node request."""

import asyncio
import re
from pathlib import Path

import pytest

from repro.core.orchestration import derive_instance_id
from repro.service.cluster import LocalCluster
from repro.telemetry import default_registry, parse_text


#: Families a node's scrape carries once it has served a request.
REQUIRED_FAMILIES = {
    "repro_rpc_requests_total",
    "repro_rpc_latency_seconds_count",
    "repro_tri_round_seconds_count",
    "repro_tri_messages_total",
    "repro_instances_total",
    "repro_instance_seconds_count",
    "repro_network_messages_total",
    "repro_network_bytes_total",
    "repro_network_send_seconds_count",
    "repro_network_dispatch_total",
    "repro_network_delivered_total",
    "repro_crypto_cache",
    "repro_fixedbase_tables_built_total",
}


def _metric(parsed, name, **labels):
    """Look a sample up by name and a *subset* of its labels."""
    wanted = set(labels.items())
    matches = [
        value
        for (sample_name, sample_labels), value in parsed.items()
        if sample_name == name and wanted <= set(sample_labels)
    ]
    assert matches, f"no sample {name} with labels {labels}"
    return sum(matches)


def test_documented_metric_names_match_the_registries(tmp_path):
    """docs/observability.md's catalog == what a started node registers: no
    row for a family that is gone, no family without a row, and each row's
    type and label set are the family's."""
    catalog = Path(__file__).parent.parent / "docs" / "observability.md"
    rows = {
        name: (metric_type, frozenset(re.findall(r"`(\w+)`", labels)))
        for name, metric_type, labels in re.findall(
            r"^\| `(repro_\w+)` \| (\w+) \| ([^|]*) \|", catalog.read_text(), re.M
        )
    }
    documented = set(rows)

    async def registered():
        async with LocalCluster({}, data_root=tmp_path) as cluster:
            registries = (cluster.nodes[0].registry, default_registry())
            return {
                (family.name, family.metric_type, frozenset(family.labelnames))
                for r in registries
                for family in r.collect()
            }

    families = asyncio.run(registered())
    found = {name for name, _, _ in families}
    assert documented - found == set(), "documented, but no node registers it"
    assert found - documented == set(), "registered, but missing from the catalog"
    drifted = {
        name: (rows[name], (metric_type, set(labels)))
        for name, metric_type, labels in families
        if rows[name] != (metric_type, labels)
    }
    assert drifted == {}, "catalog row (type, labels) != registered family"


@pytest.mark.integration
class TestMetricsEndpoints:
    def test_multi_node_sign_exposes_metrics(self, keys_bls04):
        async def scenario():
            async with LocalCluster({"sig": keys_bls04}) as cluster:
                client = cluster.client
                signature = await client.sign("sig", b"observable")
                assert await client.verify_signature("sig", b"observable", signature)

                text = await client.metrics(1)
                parsed = parse_text(text)

                # Per-method RPC latency histogram with consistent count/sum.
                rpc_count = _metric(
                    parsed, "repro_rpc_latency_seconds_count", method="sign"
                )
                assert rpc_count >= 1
                assert _metric(
                    parsed, "repro_rpc_latency_seconds_sum", method="sign"
                ) > 0
                assert _metric(
                    parsed,
                    "repro_rpc_latency_seconds_bucket",
                    method="sign",
                    le="+Inf",
                ) == rpc_count

                # Per-round TRI durations for the instance.
                assert _metric(
                    parsed,
                    "repro_tri_round_seconds_count",
                    scheme="bls04",
                    round="0",
                ) >= 1
                assert _metric(
                    parsed, "repro_tri_messages_total", scheme="bls04",
                    outcome="accepted",
                ) >= 1
                assert _metric(
                    parsed, "repro_instances_total", scheme="bls04",
                    status="finished",
                ) >= 1

                # Network bytes/message counters per channel (local transport).
                for direction in ("sent", "received"):
                    assert _metric(
                        parsed,
                        "repro_network_bytes_total",
                        node="1",
                        channel="local",
                        direction=direction,
                    ) > 0
                    assert _metric(
                        parsed,
                        "repro_network_messages_total",
                        node="1",
                        channel="local",
                        direction=direction,
                    ) > 0
                assert _metric(
                    parsed, "repro_network_dispatch_total", node="1"
                ) >= 1

                # The crypto-cache counters: one family, plus the built
                # count under the name thetabench reads.
                cache_stats = {}
                for name, labels in parsed:
                    if name == "repro_crypto_cache":
                        cache, stat = dict(labels)["cache"], dict(labels)["stat"]
                        cache_stats.setdefault(cache, set()).add(stat)
                assert cache_stats == {
                    "fixed_base": {"hits", "tables_built", "evictions", "tables", "capacity"},
                    "lagrange": {"hits", "misses", "size", "capacity"},
                    "cks05_name_hash": {"hits", "misses", "size", "capacity"},
                    "bls04_message_hash": {"hits", "misses", "size", "capacity"},
                }
                assert parsed[("repro_fixedbase_tables_built_total", ())] == parsed[
                    ("repro_crypto_cache", (("cache", "fixed_base"), ("stat", "tables_built")))
                ]

        asyncio.run(scenario())

    def test_metrics_isolated_per_node(self, keys_cks05):
        """Requests handled only at node 1 never appear in node 2's RPC
        metrics (each node owns a private registry)."""

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                client = cluster.client
                await client.call(1, "list_keys", {})
                parsed_two = parse_text(await client.metrics(2))
                samples = [
                    labels
                    for (name, labels) in parsed_two
                    if name == "repro_rpc_requests_total"
                    and ("method", "list_keys") in labels
                ]
                assert samples == []

        asyncio.run(scenario())

    def test_nonce_pool_depth_tracks_the_kg20_pool(self, keys_kg20):
        """The one precompute gauge: KG20 nonce sets a node holds, raised
        by the preprocessing round and lowered by each signature that pops
        one, the same number ``stats()["precompute"]["frost"]`` reports."""

        async def scenario():
            async with LocalCluster({"wallet": keys_kg20}) as cluster:
                client, nodes = cluster.client, cluster.nodes

                async def depths():
                    gauges = []
                    for node in nodes:
                        parsed = parse_text(await client.metrics(node.config.node_id))
                        assert {
                            labels for (name, labels) in parsed
                            if name == "repro_precompute_pool_depth"
                        } == {(("key", "wallet"), ("op", "kg20-nonce"))}
                        gauges.append(
                            _metric(parsed, "repro_precompute_pool_depth", key="wallet")
                        )
                    frost = [n.stats()["precompute"] for n in nodes]
                    return gauges, frost

                await client.precompute("wallet", 3)
                assert await depths() == ([3] * 4, [{"frost": {"wallet": 3}}] * 4)
                await client.sign("wallet", b"pops one set")
                assert await depths() == ([2] * 4, [{"frost": {"wallet": 2}}] * 4)

        asyncio.run(scenario())

    def test_http_scrape_endpoint(self, keys_bls04, keys_sg02, keys_cks05):
        """One request per protocol-API and scheme-API method; then node 1's
        ``metrics`` RPC text and its HTTP ``GET /metrics`` text both parse
        and both carry every family in :data:`REQUIRED_FAMILIES`."""
        keys = {"sig": keys_bls04, "cipher": keys_sg02, "coin": keys_cks05}

        async def scenario():
            async with LocalCluster(keys, metrics_port=0) as cluster:
                client = cluster.client
                signature = await client.sign("sig", b"scrape-me")
                assert await client.verify_signature("sig", b"scrape-me", signature)
                ciphertext = await client.encrypt("cipher", b"scrape-me", b"l")
                assert await client.decrypt("cipher", ciphertext, b"l") == b"scrape-me"
                await client.flip_coin("coin", b"scrape-me")
                assert len((await client.call(1, "list_keys", {}))["keys"]) == 3
                host, port = cluster.nodes[0].metrics_address
                assert port != 0  # ephemeral port was bound

                async def get(path):
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    head, _, body = raw.partition(b"\r\n\r\n")
                    return head.decode("latin-1"), body.decode()

                head, http_text = await get("/metrics")
                assert head.startswith("HTTP/1.1 200 OK")
                assert "text/plain; version=0.0.4" in head
                head, _ = await get("/nope")
                assert head.startswith("HTTP/1.1 404")
                return await client.metrics(1), http_text

        for text in asyncio.run(scenario()):
            parsed = parse_text(text)
            assert {name for name, _ in parsed} >= REQUIRED_FAMILIES
            for method in ("sign", "decrypt", "flip_coin"):
                assert _metric(
                    parsed, "repro_rpc_latency_seconds_count", method=method
                ) >= 1
            for scheme in ("bls04", "sg02", "cks05"):
                assert _metric(
                    parsed, "repro_tri_round_seconds_count", scheme=scheme
                ) >= 1
            assert _metric(
                parsed, "repro_network_bytes_total", node="1", channel="local"
            ) > 0

    def test_stats_percentiles_from_histogram(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                nodes, client = cluster.nodes, cluster.client
                for i in range(4):
                    await client.flip_coin("coin", b"p%d" % i)
                stats = await client.node_stats(1)
                summary = stats["latency"]
                assert summary["count"] == 4
                for key in ("mean", "p50", "p95", "p99", "max"):
                    assert summary[key] > 0
                assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
                # Exact interpolated median over the four recorded samples.
                child = nodes[0].registry.get("repro_instance_seconds").labels("cks05")
                ordered = sorted(child.samples())
                assert summary["p50"] == pytest.approx(
                    (ordered[1] + ordered[2]) / 2
                )

        asyncio.run(scenario())


@pytest.mark.integration
class TestTracePropagation:
    def test_sign_trace_spans_rounds_and_hops(self, keys_bls04):
        async def scenario():
            async with LocalCluster({"sig": keys_bls04}) as cluster:
                client = cluster.client
                await client.sign("sig", b"traced")
                instance_id = derive_instance_id("sign", "sig", b"traced", b"")

                statuses = {
                    n: await client.status(instance_id, n)
                    for n in client.node_ids
                }
                trace_ids = {
                    n: status["trace"]["trace_id"]
                    for n, status in statuses.items()
                }
                assert len(set(trace_ids.values())) == len(trace_ids)

                for node_id, status in statuses.items():
                    trace = status["trace"]
                    span_names = [s["name"] for s in trace["spans"]]
                    assert "round-0" in span_names
                    # The RPC entry span wraps the executor's rounds.
                    assert "rpc:sign" in span_names or trace["name"].startswith(
                        "instance:"
                    )
                    hops = [
                        e for e in trace["events"] if e["name"] == "hop"
                    ]
                    assert hops, f"node {node_id} saw no hops"
                    peer_traces = {
                        t for n, t in trace_ids.items() if n != node_id
                    }
                    for hop in hops:
                        attrs = hop["attributes"]
                        assert attrs["outcome"] == "accepted"
                        # Every hop is attributed to the trace id the
                        # sending peer stamped into the envelope.
                        assert attrs["origin_trace"] in peer_traces
                        assert attrs["sender"] in client.node_ids

        asyncio.run(scenario())


@pytest.mark.integration
class TestServerShutdownSemantics:
    def test_stop_awaits_inflight_handlers(self, keys_cks05):
        """stop() must gather the cancelled handler tasks, not abandon them."""

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                node = cluster.nodes[0]
                # Park a request that will never finish (unknown peers only
                # get one share) so a handler task is in flight during stop().
                asyncio.get_running_loop().create_task(
                    cluster.client.call(1, "status", {"instance_id": "missing"})
                )
                await asyncio.sleep(0.05)
            assert not node.rpc._tasks  # gathered, not leaked

        asyncio.run(scenario())

    def test_abrupt_client_disconnect_closes_writer(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                nodes = cluster.nodes
                host, port = nodes[0].rpc_address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"id": 1, "method": "ping", "params": {}}\n')
                await writer.drain()
                await reader.readline()
                # Abort without a clean shutdown; the server must close its
                # side rather than leak the writer.
                writer.transport.abort()
                await asyncio.sleep(0.05)

        asyncio.run(scenario())
