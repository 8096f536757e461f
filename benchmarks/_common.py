"""Shared helpers for the benchmark harness.

Every benchmark prints the rows/series of the paper artefact it regenerates
(the numbers land in the pytest output and EXPERIMENTS.md), and exercises
the code through ``benchmark.pedantic`` so ``pytest --benchmark-only`` also
records wall-clock cost.

Set ``REPRO_FAST=1`` to shrink the sweeps for a quick smoke run.
"""

from __future__ import annotations

import os

FAST = os.environ.get("REPRO_FAST", "") not in ("", "0")


def fast_mode() -> bool:
    return FAST


def host_cores() -> int:
    return os.cpu_count() or 1


def requires_cores(n: int) -> bool:
    """Host gate for performance assertions that need real parallelism.

    The correctness half of every benchmark runs everywhere; the
    throughput/latency claims only hold with enough cores.  Returns True
    when the host qualifies, and prints the skip so a gated run is visible
    in the log rather than silently green.
    """
    cores = host_cores()
    if cores >= n:
        return True
    print(f"[gate] host has {cores} cores < {n}: performance asserts skipped")
    return False


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}"
