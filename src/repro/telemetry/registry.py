"""Metric primitives and the registry that collects them.

The paper's evaluation co-locates a Prometheus server on every node
(§4.1); this module supplies the node-side half of that arrangement:
labeled :class:`Counter`, :class:`Gauge`, and :class:`Histogram` families
tracked by a :class:`MetricRegistry`.  A process-global default registry
(:func:`default_registry`) holds process-wide instruments (network
transports, crypto caches); each :class:`~repro.service.node.ThetacryptNode`
additionally owns a private registry so that per-node request metrics stay
isolated when many nodes share one process (the in-process test topology).

Histograms use fixed exponential buckets sized for crypto-op latencies
(250 µs … ≈130 s, factor 2) *and* retain a bounded window of raw
observations, so quantile extraction (p50/p95/p99) is exact over the
retained window instead of bucket-interpolated.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..errors import ThetacryptError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Exponential bucket ladder sized for threshold-crypto operation latencies:
#: sub-millisecond cache hits up to multi-minute RSA keygens.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    0.00025 * (2**i) for i in range(20)
)  # 250 µs … ≈131 s

#: Raw observations retained per histogram child for exact quantiles.
DEFAULT_SAMPLE_WINDOW = 2048


class TelemetryError(ThetacryptError):
    """Misuse of the metrics API (bad name, label mismatch, …)."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise TelemetryError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Iterable[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise TelemetryError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise TelemetryError(f"duplicate label names in {names!r}")
    return names


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float


class _Child:
    """Per-label-set state; created via ``family.labels(...)``."""

    def __init__(self, family: "MetricFamily", labelvalues: tuple[str, ...]):
        self._family = family
        self._labelvalues = labelvalues
        self._lock = threading.Lock()

    @property
    def label_items(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self._family.labelnames, self._labelvalues))


class CounterChild(_Child):
    def __init__(self, family: "MetricFamily", labelvalues: tuple[str, ...]):
        super().__init__(family, labelvalues)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class GaugeChild(_Child):
    def __init__(self, family: "MetricFamily", labelvalues: tuple[str, ...]):
        super().__init__(family, labelvalues)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class HistogramChild(_Child):
    def __init__(self, family: "MetricFamily", labelvalues: tuple[str, ...]):
        super().__init__(family, labelvalues)
        self._buckets = [0] * (len(family.buckets) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._max = -math.inf
        self._samples: deque[float] = deque(maxlen=family.sample_window)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._buckets[bisect_left(self._family.buckets, value)] += 1
            self._sum += value
            self._count += 1
            self._max = max(self._max, value)
            self._samples.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def maximum(self) -> float | None:
        return None if self._count == 0 else self._max

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative counts per upper bound, ending with ``+Inf``."""
        with self._lock:
            bounds = [*self._family.buckets, math.inf]
            cumulative, out = 0, []
            for bound, in_bucket in zip(bounds, self._buckets):
                cumulative += in_bucket
                out.append((bound, cumulative))
            return out

    def samples(self) -> list[float]:
        with self._lock:
            return list(self._samples)

    def quantile(self, q: float) -> float | None:
        """Exact quantile over the retained sample window (linear interp)."""
        return _quantile(self.samples(), q)


def _quantile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile {q!r} outside [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


_CHILD_TYPES = {"counter": CounterChild, "gauge": GaugeChild, "histogram": HistogramChild}


class MetricFamily:
    """A named metric plus all its label-set children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
        sample_window: int = DEFAULT_SAMPLE_WINDOW,
    ):
        self.name = _check_name(name)
        self.help_text = help_text
        if metric_type not in _CHILD_TYPES:
            raise TelemetryError(f"unknown metric type {metric_type!r}")
        self.metric_type = metric_type
        self.labelnames = _check_labelnames(labelnames)
        if metric_type == "histogram":
            bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
            if list(bounds) != sorted(set(bounds)):
                raise TelemetryError("histogram buckets must be sorted and unique")
            self.buckets: tuple[float, ...] = bounds
        else:
            if buckets is not None:
                raise TelemetryError(f"buckets are histogram-only, not {metric_type}")
            self.buckets = ()
        self.sample_window = sample_window
        self._children: dict[tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()

    def labels(self, *labelvalues: str, **labelkw: str):
        """Get-or-create the child for one label-value set."""
        if labelvalues and labelkw:
            raise TelemetryError("pass label values positionally or by name, not both")
        if labelkw:
            if set(labelkw) != set(self.labelnames):
                raise TelemetryError(
                    f"labels {sorted(labelkw)} != declared {sorted(self.labelnames)}"
                )
            values = tuple(str(labelkw[name]) for name in self.labelnames)
        else:
            values = tuple(str(v) for v in labelvalues)
        if len(values) != len(self.labelnames):
            raise TelemetryError(
                f"{self.name} expects {len(self.labelnames)} label values, "
                f"got {len(values)}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = _CHILD_TYPES[self.metric_type](self, values)
                self._children[values] = child
            return child

    def _solo(self):
        """The single child of an unlabeled family."""
        if self.labelnames:
            raise TelemetryError(f"{self.name} is labeled; call .labels() first")
        return self.labels()

    # Unlabeled convenience: family.inc() / .set() / .observe() proxy to the
    # single child, so `counter("x", "…").inc()` works without .labels().
    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    def children(self) -> list[_Child]:
        with self._lock:
            return list(self._children.values())

    # -- aggregate views (used by node.stats() summaries) ----------------------

    def total_count(self) -> int:
        return sum(c.count for c in self.children())

    def total_sum(self) -> float:
        return sum(c.sum for c in self.children())

    def totals_by(self, *labelnames: str) -> dict[str, int]:
        """Counter values summed over every other label, keyed by the
        named labels' values (``/``-joined): what ``stats()`` reports."""
        positions = [self.labelnames.index(name) for name in labelnames]
        totals: dict[str, int] = {}
        for child in self.children():
            key = "/".join(child._labelvalues[position] for position in positions)
            totals[key] = totals.get(key, 0) + int(child.value)
        return dict(sorted(totals.items()))

    def merged_quantile(self, q: float) -> float | None:
        """Quantile over the pooled sample windows of all children."""
        pooled: list[float] = []
        for child in self.children():
            pooled.extend(child.samples())
        return _quantile(pooled, q)

    def merged_max(self) -> float | None:
        maxima = [c.maximum for c in self.children() if c.maximum is not None]
        return max(maxima) if maxima else None


class MetricRegistry:
    """Holds metric families and hands out idempotent get-or-create handles."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], None]] = []
        self._lock = threading.RLock()

    def _get_or_create(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        labelnames: Iterable[str],
        **kwargs,
    ) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.metric_type != metric_type:
                    raise TelemetryError(
                        f"{name} already registered as {family.metric_type}, "
                        f"not {metric_type}"
                    )
                if family.labelnames != labelnames:
                    raise TelemetryError(
                        f"{name} already registered with labels "
                        f"{family.labelnames}, not {labelnames}"
                    )
                return family
            family = MetricFamily(name, help_text, metric_type, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
        sample_window: int = DEFAULT_SAMPLE_WINDOW,
    ) -> MetricFamily:
        return self._get_or_create(
            name,
            help_text,
            "histogram",
            labels,
            buckets=buckets,
            sample_window=sample_window,
        )

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def register_collector(self, collect: Callable[[], None]) -> None:
        """Add a callback run before every :meth:`collect` (pull-style
        sources such as the crypto caches update their gauges here)."""
        with self._lock:
            self._collectors.append(collect)

    def collect(self) -> list[MetricFamily]:
        """Run pull collectors, then return families sorted by name."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        """Drop all families and collectors (tests/benchmarks)."""
        with self._lock:
            self._families.clear()
            self._collectors.clear()


_DEFAULT = MetricRegistry()


def default_registry() -> MetricRegistry:
    """The process-global registry (network transports, crypto caches)."""
    return _DEFAULT


def counter(name: str, help_text: str, labels: Iterable[str] = ()) -> MetricFamily:
    return _DEFAULT.counter(name, help_text, labels)


def gauge(name: str, help_text: str, labels: Iterable[str] = ()) -> MetricFamily:
    return _DEFAULT.gauge(name, help_text, labels)


def histogram(
    name: str,
    help_text: str,
    labels: Iterable[str] = (),
    buckets: Iterable[float] | None = None,
) -> MetricFamily:
    return _DEFAULT.histogram(name, help_text, labels, buckets=buckets)


def summarize(family: MetricFamily | None) -> Mapping[str, float]:
    """count/mean/p50/p95/p99/max digest of a histogram family (all children
    pooled) — the shape ``ThetacryptNode.stats()["latency"]`` reports."""
    if family is None or family.total_count() == 0:
        return {}
    count = family.total_count()
    return {
        "count": count,
        "mean": family.total_sum() / count,
        "p50": family.merged_quantile(0.5),
        "p95": family.merged_quantile(0.95),
        "p99": family.merged_quantile(0.99),
        "max": family.merged_max(),
    }
