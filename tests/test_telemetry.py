"""Telemetry unit tests: registry semantics, exposition golden output,
quantile math, and trace contexts."""

import asyncio
import math
import time

import pytest

from repro.telemetry import (
    EventLoopLagSampler,
    MetricRegistry,
    TelemetryError,
    current_trace,
    parse_text,
    render_text,
    start_trace,
    summarize,
)
from repro.telemetry.registry import DEFAULT_BUCKETS, _quantile
from repro.telemetry.tracing import TraceContext, adopt_trace


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricRegistry()
        requests = registry.counter("requests_total", "Requests.")
        requests.inc()
        requests.inc(2.5)
        assert requests.value == 3.5

    def test_negative_increment_rejected(self):
        registry = MetricRegistry()
        c = registry.counter("c_total", "c")
        with pytest.raises(TelemetryError):
            c.inc(-1)

    def test_labeled_children_are_independent(self):
        registry = MetricRegistry()
        c = registry.counter("hits_total", "h", ("method",))
        c.labels("sign").inc()
        c.labels("sign").inc()
        c.labels(method="decrypt").inc()
        assert c.labels("sign").value == 2
        assert c.labels("decrypt").value == 1

    def test_label_cardinality_enforced(self):
        registry = MetricRegistry()
        c = registry.counter("x_total", "x", ("a", "b"))
        with pytest.raises(TelemetryError):
            c.labels("only-one")
        with pytest.raises(TelemetryError):
            c.labels(a="1", wrong="2")

    def test_unlabeled_shortcut_rejected_on_labeled_family(self):
        registry = MetricRegistry()
        c = registry.counter("y_total", "y", ("a",))
        with pytest.raises(TelemetryError):
            c.inc()


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricRegistry()
        g = registry.gauge("inflight", "g")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4


class TestRegistry:
    def test_get_or_create_idempotent(self):
        registry = MetricRegistry()
        a = registry.counter("same_total", "s", ("l",))
        b = registry.counter("same_total", "ignored", ("l",))
        assert a is b

    def test_type_conflict_rejected(self):
        registry = MetricRegistry()
        registry.counter("taken", "t")
        with pytest.raises(TelemetryError):
            registry.gauge("taken", "t")

    def test_label_conflict_rejected(self):
        registry = MetricRegistry()
        registry.counter("lbl_total", "t", ("a",))
        with pytest.raises(TelemetryError):
            registry.counter("lbl_total", "t", ("b",))

    def test_invalid_names_rejected(self):
        registry = MetricRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("1bad", "x")
        with pytest.raises(TelemetryError):
            registry.counter("ok_total", "x", ("bad-label",))
        with pytest.raises(TelemetryError):
            registry.counter("also_ok", "x", ("__reserved",))

    def test_collector_runs_at_collect_time(self):
        registry = MetricRegistry()
        g = registry.gauge("pulled", "p")
        registry.register_collector(lambda: g.set(42))
        families = registry.collect()
        assert g.value == 42
        assert [f.name for f in families] == ["pulled"]


class TestHistogram:
    def test_bucket_boundaries_cumulative(self):
        registry = MetricRegistry()
        h = registry.histogram("lat", "l", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0, 50.0):
            h.observe(v)
        child = h.labels()
        bounds = child.bucket_counts()
        # le=0.1 catches 0.05 and the boundary value 0.1 itself.
        assert bounds == [(0.1, 2), (1.0, 3), (10.0, 4), (math.inf, 5)]
        assert child.count == 5
        assert child.sum == pytest.approx(55.65)
        assert child.maximum == 50.0

    def test_default_buckets_are_exponential(self):
        ratios = {
            DEFAULT_BUCKETS[i + 1] / DEFAULT_BUCKETS[i]
            for i in range(len(DEFAULT_BUCKETS) - 1)
        }
        assert ratios == {2.0}
        assert DEFAULT_BUCKETS[0] == pytest.approx(0.00025)

    def test_unsorted_buckets_rejected(self):
        registry = MetricRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("bad", "b", buckets=(1.0, 0.5))

    def test_quantiles_exact(self):
        registry = MetricRegistry()
        h = registry.histogram("q", "q")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        child = h.labels()
        assert child.quantile(0.5) == pytest.approx(50.5)
        assert child.quantile(0.95) == pytest.approx(95.05)
        assert child.quantile(0.99) == pytest.approx(99.01)
        assert child.quantile(0.0) == 1.0
        assert child.quantile(1.0) == 100.0

    def test_even_count_median_interpolates(self):
        # The bug the histogram replaces: latencies[len//2] returned the
        # *upper* neighbour for even counts (3 for [1,2,3,4]).
        registry = MetricRegistry()
        h = registry.histogram("m", "m")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.labels().quantile(0.5) == pytest.approx(2.5)

    def test_quantile_empty_and_invalid(self):
        assert _quantile([], 0.5) is None
        with pytest.raises(TelemetryError):
            _quantile([1.0], 1.5)

    def test_merged_quantile_pools_children(self):
        registry = MetricRegistry()
        h = registry.histogram("per_scheme", "p", ("scheme",))
        for v in (1.0, 2.0):
            h.labels("a").observe(v)
        for v in (3.0, 4.0):
            h.labels("b").observe(v)
        assert h.merged_quantile(0.5) == pytest.approx(2.5)
        assert h.total_count() == 4
        assert h.total_sum() == pytest.approx(10.0)
        assert h.merged_max() == 4.0

    def test_summarize_shape(self):
        registry = MetricRegistry()
        h = registry.histogram("s", "s", ("k",))
        assert summarize(h) == {}
        assert summarize(None) == {}
        h.labels("x").observe(2.0)
        digest = summarize(h)
        assert digest["count"] == 1
        assert digest["mean"] == digest["p50"] == digest["max"] == 2.0
        assert set(digest) == {"count", "mean", "p50", "p95", "p99", "max"}


GOLDEN = """\
# HELP demo_latency_seconds Demo latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{op="sign",le="0.1"} 1
demo_latency_seconds_bucket{op="sign",le="1"} 2
demo_latency_seconds_bucket{op="sign",le="+Inf"} 3
demo_latency_seconds_sum{op="sign"} 3.5625
demo_latency_seconds_count{op="sign"} 3
# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total{method="decrypt",ok="false"} 1
demo_requests_total{method="sign",ok="true"} 2
# HELP demo_up Node liveness.
# TYPE demo_up gauge
demo_up 1
"""


def test_lag_sampler_records():
    async def scenario():
        registry = MetricRegistry()
        sampler = EventLoopLagSampler(registry, interval=0.01)
        sampler.start()
        # A deliberate loop stall the sampler must observe.
        await asyncio.sleep(0.03)
        time.sleep(0.08)
        await asyncio.sleep(0.03)
        await sampler.stop()
        summary = summarize(registry.get("repro_event_loop_lag_seconds"))
        assert summary["count"] >= 2
        assert summary["max"] >= 0.05

    asyncio.run(scenario())


def _golden_registry() -> MetricRegistry:
    registry = MetricRegistry()
    c = registry.counter("demo_requests_total", "Requests served.", ("method", "ok"))
    c.labels("sign", "true").inc(2)
    c.labels("decrypt", "false").inc()
    registry.gauge("demo_up", "Node liveness.").set(1)
    h = registry.histogram("demo_latency_seconds", "Demo latency.", ("op",), buckets=(0.1, 1.0))
    # Dyadic values: the rendered _sum must be exact, not 3.599999….
    for v in (0.0625, 0.5, 3.0):
        h.labels("sign").observe(v)
    return registry


class TestExposition:
    def test_golden_text(self):
        assert render_text(_golden_registry()) == GOLDEN

    def test_parse_round_trip(self):
        parsed = parse_text(GOLDEN)
        assert parsed[("demo_up", ())] == 1
        assert parsed[("demo_requests_total", (("method", "sign"), ("ok", "true")))] == 2
        assert (
            parsed[("demo_latency_seconds_bucket", (("op", "sign"), ("le", "+Inf")))]
            == 3
        )
        assert parsed[("demo_latency_seconds_sum", (("op", "sign"),))] == 3.5625

    def test_label_escaping(self):
        registry = MetricRegistry()
        registry.counter("esc_total", "e", ("v",)).labels('a"b\\c\nd').inc()
        text = render_text(registry)
        assert r'v="a\"b\\c\nd"' in text

    def test_merge_prefers_first_registry(self):
        first, second = MetricRegistry(), MetricRegistry()
        first.gauge("shared", "s").set(1)
        second.gauge("shared", "s").set(2)
        second.gauge("extra", "e").set(3)
        parsed = parse_text(render_text(first, second))
        assert parsed[("shared", ())] == 1
        assert parsed[("extra", ())] == 3

    def test_empty_registry_renders_empty(self):
        assert render_text(MetricRegistry()) == ""


class TestTracing:
    def test_span_recording(self):
        trace = TraceContext("t")
        with trace.span("work", kind="demo"):
            pass
        trace.event("hop", sender=2)
        report = trace.report()
        assert report["name"] == "t"
        assert len(report["trace_id"]) == 16
        (span,) = report["spans"]
        assert span["name"] == "work"
        assert span["end"] >= span["start"]
        assert span["attributes"] == {"kind": "demo"}
        (event,) = report["events"]
        assert event["name"] == "hop" and event["attributes"] == {"sender": 2}

    def test_start_trace_sets_and_restores_context(self):
        assert current_trace() is None
        with start_trace("outer") as outer:
            assert current_trace() is outer
            assert adopt_trace("ignored") is outer
        assert current_trace() is None
        detached = adopt_trace("fresh")
        assert detached.name == "fresh"

    def test_tasks_inherit_trace_context(self):
        async def scenario():
            seen = {}

            async def child():
                trace = current_trace()
                seen["id"] = trace.trace_id if trace else None

            with start_trace("request") as trace:
                task = asyncio.get_running_loop().create_task(child())
            await task
            assert seen["id"] == trace.trace_id
            # A task created outside the block sees no trace.
            task2 = asyncio.get_running_loop().create_task(child())
            await task2
            assert seen["id"] is None

        asyncio.run(scenario())
