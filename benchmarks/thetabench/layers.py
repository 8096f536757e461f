"""Per-layer metrics: scrape deltas (S), the trace pass (T), /proc and
isolated timings (P).  README.md says which end-to-end metric each one is
expected to move.  A metric whose code path the workload never enters
(no calls, no samples) reads 0."""

from __future__ import annotations

import random
import statistics
import time

from measure import DaemonRun
from tracepass import TracePass
from tracing import budget

from repro.mathutils import backends


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _family(scrape: dict, name: str, **labels: str) -> float:
    """Sum of a family's series whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(
        value
        for (family, series), value in scrape.items()
        if family == name and wanted <= set(series)
    )


def _histogram_mean_ms(scrape: dict, name: str, **labels: str) -> float:
    return 1e3 * _ratio(
        _family(scrape, name + "_sum", **labels),
        _family(scrape, name + "_count", **labels),
    )


def _histogram_quantile_ms(scrape: dict, name: str, q: float) -> float:
    """Quantile ``q`` of the delta, interpolated inside its bucket."""
    buckets = sorted(
        (float(dict(series)["le"]), value)
        for (family, series), value in scrape.items()
        if family == name + "_bucket"
    )
    total = buckets[-1][1] if buckets else 0.0
    if not total:
        return 0.0
    low_bound, low_count = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= q * total:
            if bound == float("inf"):
                return 1e3 * low_bound  # beyond the last finite bucket
            inside = (q * total - low_count) / (cumulative - low_count)
            return 1e3 * (low_bound + (bound - low_bound) * inside)
        low_bound, low_count = bound, cumulative
    return 1e3 * low_bound


def _isolated_us(function, operands: list[tuple]) -> float:
    """Median microseconds of one call over seeded operands."""
    samples = []
    for args in operands:
        started = time.perf_counter()
        function(*args)
        samples.append((time.perf_counter() - started) * 1e6)
    return statistics.median(samples)


def _mathutils(seed: int) -> dict[str, float]:
    """256-bit modexp and inverse on the backend the daemons resolved to
    (this process runs the same auto-selection)."""
    rng = random.Random(f"thetabench/mathutils/{seed}")
    modulus = 2**255 - 19
    values = [rng.randrange(2, modulus) for _ in range(400)]
    return {
        "mathutils.modexp_256_us": _isolated_us(
            backends.modexp, [(a, b, modulus) for a, b in zip(values[:200], values[200:])]
        ),
        "mathutils.inverse_256_us": _isolated_us(
            backends.modinv, [(a, modulus) for a in values]
        ),
    }


def per_layer(
    run: DaemonRun, trace: TracePass, method: str, seed: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Every per-layer metric of BENCHMARK.json by name, and the budget:
    self milliseconds per op and layer plus the unattributed rest, which
    sum to the traced wall per op."""
    ops = run.attempted
    scrape = run.scrape
    report = budget(trace.spans)
    names, layers = report["names"], report["layers"]
    traced_ops, traced_wall = trace.traced_ops, trace.traced_wall_s

    def mean(name: str, unit: float = 1e3) -> float:
        calls, inclusive = names.get(name, (0, 0.0))
        return unit * _ratio(inclusive, calls)

    def per_op(name: str) -> float:
        return _ratio(names.get(name, (0, 0.0))[0], traced_ops)

    def busy_ms(layer: str) -> float:
        return 1e3 * _ratio(layers.get(layer, 0.0), traced_ops)

    groups_busy = layers.get("groups", 0.0)
    cpu_ms_per_op = 1e3 * _ratio(run.cpu_s, run.completed)
    sent = dict(channel="tcp", direction="sent")
    metrics = {
        # service
        "service.rpc_roundtrip_ms": run.ping_ms,
        "service.rpc_server_ms": _histogram_mean_ms(
            scrape, "repro_rpc_latency_seconds", method=method
        ),
        "service.busy_ms_per_op": busy_ms("service"),
        "service.event_loop_lag_p99_ms": _histogram_quantile_ms(
            scrape, "repro_event_loop_lag_seconds", 0.99
        ),
        # core.orchestration
        "core.orchestration.instance_ms": _histogram_mean_ms(
            scrape, "repro_instance_seconds"
        ),
        "core.orchestration.busy_ms_per_op": busy_ms("core.orchestration"),
        "core.orchestration.replay_hit_ratio": _ratio(
            _family(scrape, "repro_requests_coalesced_total"),
            _family(scrape, "repro_rpc_requests_total", method=method),
        ),
        "core.orchestration.rss_growth_kb_per_op": _ratio(
            run.rss_kb_end - run.rss_kb_warm, ops
        ),
        # core.protocols
        "core.protocols.make_operation_ms": mean("core.protocols.make_operation"),
        "core.protocols.create_share_ms": mean("core.protocols.create_share"),
        "core.protocols.verify_share_ms": mean("core.protocols.verify_share"),
        "core.protocols.combine_ms": mean("core.protocols.combine"),
        "core.protocols.verify_calls_per_op": per_op("core.protocols.verify_share"),
        "core.protocols.combine_calls_per_op": per_op("core.protocols.combine"),
        # schemes
        "schemes.bls04.verify_signature_ms": mean("schemes.bls04.verify_signature"),
        "schemes.bls04.verify_batch_bad_ms": trace.bad_batch_ms,
        "schemes.dleq.prove_ms": mean("schemes.dleq.prove"),
        "schemes.dleq.verify_ms": mean("schemes.dleq.verify"),
        "schemes.sg02.verify_ciphertext_ms": mean("schemes.sg02.verify_ciphertext"),
        # groups
        "groups.bn254.pairing_check_ms": mean("groups.bn254.pairing_check"),
        "groups.bn254.pairing_checks_per_op": per_op("groups.bn254.pairing_check"),
        "groups.bn254.g1_mul_ms": mean("groups.bn254.g1_mul"),
        "groups.bn254.hash_to_g1_ms": mean("groups.bn254.hash_to_g1"),
        "groups.bn254.g1_decode_ms": mean("groups.bn254.g1_decode"),
        "groups.ed25519.exp_ms": mean("groups.ed25519.exp"),
        "groups.ed25519.exps_per_op": per_op("groups.ed25519.exp"),
        "groups.ed25519.decode_ms": mean("groups.ed25519.decode"),
        "groups.ed25519.decodes_per_op": per_op("groups.ed25519.decode"),
        "groups.ed25519.hash_to_element_ms": mean("groups.ed25519.hash_to_element"),
        "groups.multi_exp_ms": mean("groups.multi_exp"),
        "groups.fixed_pow_ms": mean("groups.fixed_pow"),
        "groups.fixed_pows_per_op": per_op("groups.fixed_pow"),
        "groups.fixed_base_tables_built_per_op": _ratio(
            _family(scrape, "repro_fixedbase_tables_built_total"), ops
        ),
        "groups.busy_share": _ratio(groups_busy, traced_wall),
        # symmetric
        "symmetric.aead_decrypt_4k_ms": mean("symmetric.aead_decrypt"),
        # network
        "network.msgs_per_op": _ratio(
            _family(scrape, "repro_network_messages_total", **sent), ops
        ),
        "network.bytes_per_op": _ratio(
            _family(scrape, "repro_network_bytes_total", **sent), ops
        ),
        "network.send_ms": _histogram_mean_ms(
            scrape, "repro_network_send_seconds", channel="tcp"
        ),
        "network.resends_per_op": _ratio(
            _family(scrape, "repro_net_send_failures")
            + _family(scrape, "repro_net_resends_total"),
            ops,
        ),
        "network.codec_us": mean("network.codec", unit=1e6),
        # storage
        "storage.wal.append_ms": mean("storage.wal.append"),
        "storage.wal.appends_per_op": per_op("storage.wal.append"),
        "storage.results.put_ms": mean("storage.results.put"),
        "storage.results.get_us": mean("storage.results.get", unit=1e6),
        "storage.disk_kb_per_op": _ratio(run.disk_kb, ops),
        "storage.recovery_s": run.recovery_s,
        # report quality
        "trace.unattributed_share": _ratio(traced_wall - report["busy"], traced_wall),
        "trace.overhead_ratio": _ratio(traced_wall, trace.untraced_wall_s),
        "trace.wall_vs_cpu_ratio": _ratio(
            1e3 * _ratio(traced_wall, traced_ops), cpu_ms_per_op
        ),
    }
    metrics.update(_mathutils(seed))
    budget_ms = {layer: busy_ms(layer) for layer in sorted(layers)}
    budget_ms["unattributed"] = 1e3 * _ratio(traced_wall - report["busy"], traced_ops)
    return metrics, budget_ms
