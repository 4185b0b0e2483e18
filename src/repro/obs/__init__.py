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
A simulation that wants its counts without tracing owns a bundle built
with ``enabled=False``: the same null tracer and no-op pushed
instruments, but a registry that keeps what components track.

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
    CountsOnlyMetrics,
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
from repro.obs.export import snapshot_to_json
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

    ``enabled`` is the observability switch.  It governs the tracer and
    the pushed instruments (histograms, counters nobody else keeps); the
    registry keeps tracked counts either way.
    """

    def __init__(self, sim: Any, max_spans: int = 100_000, enabled: bool = True) -> None:
        self.enabled = enabled
        if enabled:
            self.tracer: Tracer | NullTracer = Tracer(sim, max_spans=max_spans)
            self.metrics: MetricsRegistry = MetricsRegistry()
        else:
            self.tracer = NullTracer()
            self.metrics = CountsOnlyMetrics()


class _NoopObservability:
    """The default: observability off, everything a no-op.  It is shared
    by every component built without a bundle, so its registry keeps no
    owner: one that did would keep every component the process ever
    made."""

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
    "CountsOnlyMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
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
