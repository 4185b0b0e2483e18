"""repro.obs — cross-island tracing and metrics for the meta-middleware.

The framework's central claim is that a call can cross middleware islands
transparently; this package makes the cost of that transparency visible.
One :class:`Observability` object per simulation bundles:

- a :class:`~repro.obs.trace.Tracer` that turns a bridged call into a
  single span tree spanning both islands (context crosses the interchange
  in the ``X-Trace`` HTTP header), and
- a :class:`~repro.obs.metrics.MetricsRegistry` of deterministic counters,
  gauges and histograms: it reads the counts the VSG, VSR client,
  resilience layer, HTTP pool, event router and reactor keep in their own
  attributes, plus the histograms they push.

Everything defaults to :data:`NOOP_OBS` — null tracer, null metrics —
so the instrumented hot paths cost one attribute check when observability
is off, and the wire format is untouched (no ``X-Trace`` header is added).

Typical use::

    from repro.obs import Observability
    obs = Observability(sim)
    home = build_smart_home(sim=sim, obs=obs)
    ...
    print(render_trace_tree(obs.tracer))
    print(obs.metrics.to_json())

See ``docs/OBSERVABILITY.md`` for the trace model and metric catalogue.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_HEADER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    render_trace_tree,
)
from repro.obs.export import (
    snapshot_to_json,
    snapshot_with_traffic,
    spans_to_jsonl,
    write_spans_jsonl,
)
from repro.obs.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthPolicy,
    quantile_from_buckets,
    score_island,
)
from repro.obs.flight import FlightRecorder
from repro.obs.telemetry import (
    TELEMETRY_TOPIC_PREFIX,
    TelemetryAgent,
    TelemetryCollector,
)


class Observability:
    """Bundle of one tracer + one metrics registry for a simulation.

    Components whose counts the registry tracks (gateways, VSR clients,
    HTTP clients, journals, rule engines, reactors) stay referenced by
    it for the bundle's life.
    """

    enabled = True

    def __init__(self, sim: Any, max_spans: int = 100_000) -> None:
        self.tracer = Tracer(sim, max_spans=max_spans)
        self.metrics = MetricsRegistry()


class _NoopObservability:
    """The default: observability off, everything a no-op."""

    enabled = False

    def __init__(self) -> None:
        self.tracer = NullTracer()
        self.metrics = NullMetrics()


#: Shared disabled singleton — the default ``obs`` everywhere.
NOOP_OBS = _NoopObservability()

__all__ = [
    "Observability",
    "NOOP_OBS",
    "Tracer",
    "NullTracer",
    "Span",
    "TraceContext",
    "TRACE_HEADER",
    "NULL_SPAN",
    "render_trace_tree",
    "MetricsRegistry",
    "NullMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "snapshot_with_traffic",
    "snapshot_to_json",
    "TelemetryAgent",
    "TelemetryCollector",
    "TELEMETRY_TOPIC_PREFIX",
    "HealthPolicy",
    "HEALTHY",
    "DEGRADED",
    "UNHEALTHY",
    "score_island",
    "quantile_from_buckets",
    "FlightRecorder",
]
