#!/usr/bin/env python3
"""thetabench: end-to-end and per-layer benchmark of the Θ-network.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/thetabench/run.py --workload coin_fresh --seed 1 \\
        --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of separate
daemon processes with no wrapper installed anywhere; ``--trace 1`` reports
the per-layer metrics (scrape deltas of a daemon run plus the in-process
trace pass).  Without ``--workload`` the whole suite runs, both passes of
every workload; ``--repeat N`` runs the end-to-end suite N times and
checks the runs against the bounds.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cluster  # noqa: E402  (puts the checkout's src/ on sys.path)
from layers import per_layer  # noqa: E402
from measure import CLIENTS, DaemonRun, daemon_run  # noqa: E402
from tracepass import trace_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((cluster.REPO / "BENCHMARK.json").read_text())
OUT = HERE / "out"
#: Set-ups timed per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Share of ``--seconds`` the daemon window of a ``--trace 1`` run gets;
#: the rest of that run's time is the in-process trace pass.
TRACE_WINDOW_SHARE = 0.5


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(cluster.REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def _end_to_end(run: DaemonRun) -> dict[str, float]:
    quartiles = statistics.quantiles(run.latencies_ms, n=4, method="inclusive")
    return {
        "throughput_rps": run.in_window / run.window_s,
        "latency_p50_ms": quartiles[1],
        "latency_p75_ms": quartiles[2],
        "cpu_ms_per_op": 1e3 * run.cpu_s / run.completed,
        "rss_mb": run.rss_kb_warm / 1024,
        "setup_s": statistics.median(run.setup_s),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """One workload, one pass; returns the full result record."""
    workload = WORKLOADS[name]
    seconds *= scale
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        cluster.warm_page_cache()
        run = asyncio.run(
            daemon_run(
                workload,
                seed,
                seconds * (TRACE_WINDOW_SHARE if trace else 1.0),
                workdir,
                setups=1 if trace else SETUPS,
                scale=scale,
                layers=trace,
            )
        )
        extra = {}
        if trace:
            material = cluster.deal((workload.scheme,))
            traced = asyncio.run(
                trace_pass(workload, material, seed, workdir / "trace", scale)
            )
            values, extra["layer_budget_ms_per_op"] = per_layer(
                run, traced, workload.method, seed
            )
            extra["traced_wall_ms_per_op"] = (
                1e3 * traced.traced_wall_s / traced.traced_ops
            )
            (OUT / f"trace-{name}.json").write_text(
                json.dumps({"columns": ["name", "start", "end", "parent", "request"],
                            "spans": traced.spans})
            )
        else:
            values = _end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    result = {
        "workload": name,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
        "provenance": {
            "git_commit": _git_commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "math_backend": run.backend,
            "seed": seed,
            "window_s": run.window_s,
            "latency_samples": len(run.latencies_ms),
            "setups_timed": len(run.setup_s),
            "clients": CLIENTS,
            "daemon_cpus": run.daemon_cpus,
            "topology": (
                "separate-process daemons (scrape, /proc) + in-process trace pass"
                if trace
                else "separate-process daemons"
            ),
            "scale": scale,
            "run_wall_s": time.perf_counter() - started,
        },
        **extra,
    }
    path = OUT / f"result-{name}-trace{int(trace)}-seed{seed}.json"
    path.write_text(json.dumps(result, indent=1))
    return result


def _print_metrics(result: dict) -> None:
    p = result["provenance"]
    print(
        f"[{result['workload']}] {p['topology']}; seed {p['seed']}, window "
        f"{p['window_s']:g} s, {result['attempted']} requests, "
        f"{result['failed']} failed, backend {p['math_backend']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.4f} {metric['unit']}")
    for layer, ms in result.get("layer_budget_ms_per_op", {}).items():
        print(f"  budget {layer:<35} {ms:>14.4f} ms/op")


def _suite(args) -> int:
    """Every workload; with ``--repeat`` the end-to-end pass N times."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    failures = 0
    for name in WORKLOADS:
        runs = []
        for _ in range(args.repeat):
            runs.append(run_one(name, args.seed, args.seconds, False, args.scale))
            _print_metrics(runs[-1])
        layers = run_one(name, args.seed, args.seconds, True, args.scale)
        _print_metrics(layers)
        failures += sum(r["failed"] for r in runs) + layers["failed"]
        if args.repeat < 2:
            continue
        print(f"[{name}] {args.repeat} runs of the same code, spread = (max-min)/median")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median
            verdict = "ok" if spread <= bound else "EXCEEDS BOUND"
            failures += spread > bound
            print(
                f"  {metric:<18} median {median:>12.4f} min {min(values):>12.4f} "
                f"max {max(values):>12.4f} spread {spread:6.1%} bound {bound:.0%} {verdict}"
            )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="suite only")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink windows, samples and sets (test runs)")
    args = parser.parse_args(argv)
    # A terminated run must still reach the finally that stops the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return _suite(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    _print_metrics(result)
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
