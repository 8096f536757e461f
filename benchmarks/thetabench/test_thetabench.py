"""Smoke test of the benchmark itself: the whole suite at ``--scale 0.05``.

Same code path as a full run, windows and sample sets shrunk.  Not part of
the tier-1 suite (``testpaths`` is ``tests``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/thetabench/test_thetabench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SCALE = 0.05


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def passes(request):
    """(end-to-end result, per-layer result) of one workload."""
    name = request.param
    seconds = run.SPEC["run_seconds"]
    return (
        run.run_one(name, 1, seconds, trace=False, scale=SCALE),
        run.run_one(name, 1, seconds, trace=True, scale=SCALE),
    )


def test_every_named_metric_is_reported_with_its_unit(passes):
    for result, listed in zip(passes, ("end_to_end", "per_layer")):
        assert list(result["metrics"]) == [m["name"] for m in run.SPEC[listed]]
        for metric in run.SPEC[listed]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))


def test_no_request_fails_or_returns_a_wrong_output(passes):
    for result in passes:
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"]


def test_end_to_end_metrics_are_never_zero(passes):
    assert all(m["value"] > 0 for m in passes[0]["metrics"].values())


def test_fresh_requests_cost_twelve_messages_and_replays_none(passes):
    layers = passes[1]
    expected = 0 if layers["workload"] == "replay_cached" else 12
    assert layers["metrics"]["network.msgs_per_op"]["value"] == expected
    hit_ratio = layers["metrics"]["core.orchestration.replay_hit_ratio"]["value"]
    assert hit_ratio == (1.0 if layers["workload"] == "replay_cached" else 0.0)


def test_trace_budget_sums_to_the_traced_wall(passes):
    layers = passes[1]
    budget = layers["layer_budget_ms_per_op"]
    wall = layers["traced_wall_ms_per_op"]
    assert sum(budget.values()) == pytest.approx(wall, rel=0.01)
    # Spans that outlast the traced interval would show as a negative rest.
    assert budget["unattributed"] >= -0.01 * wall
    assert all(ms >= 0 for layer, ms in budget.items() if layer != "unattributed")
