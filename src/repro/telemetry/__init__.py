"""Telemetry: metrics registry, request tracing, Prometheus exposition.

The observability subsystem behind the ``metrics`` RPC method, the optional
HTTP scrape endpoint, and ``ThetacryptNode.stats()``.  See
``docs/observability.md`` for the metric catalog and trace field reference.
"""

from .exposition import (
    CONTENT_TYPE,
    MetricsHttpServer,
    parse_text,
    render_text,
)
from .instruments import (
    ChannelMetrics,
    CoreMetrics,
    EventLoopLagSampler,
    PrecomputeMetrics,
    RpcMetrics,
    StorageMetrics,
    register_crypto_cache_collector,
)
from .registry import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricRegistry,
    Sample,
    TelemetryError,
    counter,
    default_registry,
    gauge,
    histogram,
    summarize,
)
from .tracing import (
    SpanRecord,
    TraceContext,
    TraceEvent,
    adopt_trace,
    current_trace,
    start_trace,
)

__all__ = [
    "CONTENT_TYPE",
    "ChannelMetrics",
    "CoreMetrics",
    "EventLoopLagSampler",
    "PrecomputeMetrics",
    "DEFAULT_BUCKETS",
    "MetricFamily",
    "MetricRegistry",
    "MetricsHttpServer",
    "RpcMetrics",
    "Sample",
    "StorageMetrics",
    "SpanRecord",
    "TelemetryError",
    "TraceContext",
    "TraceEvent",
    "adopt_trace",
    "counter",
    "current_trace",
    "default_registry",
    "gauge",
    "histogram",
    "parse_text",
    "register_crypto_cache_collector",
    "render_text",
    "start_trace",
    "summarize",
]
