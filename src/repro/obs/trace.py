"""Distributed tracing across middleware islands.

The paper's bridged call traverses many hidden layers — client stub →
Server Proxy → VSG → SOAP interchange → peer VSG → Client Proxy → native
middleware — and until now only the wire was observable
(:class:`repro.net.monitor.TrafficMonitor`).  This module makes the *call
path* observable: one bridged invocation yields a single span tree whose
spans live on both islands, timestamped from the virtual clock, so the
per-hop cost structure (proxy dispatch, VSR lookup, SOAP encode, transport,
remote dispatch, native middleware) can be read directly.

Model
-----

- :class:`TraceContext` — the propagated identity of a point in a trace:
  ``(trace_id, span_id)``.  It crosses the interchange in the ``X-Trace``
  HTTP header (``trace_id;span_id``) and rides on
  :class:`repro.core.calls.ServiceCall` inside a gateway.
- :class:`Span` — one timed operation.  Spans carry a name, the island
  they ran on, a kind (``client`` / ``server`` / ``native`` / ...), start
  and end virtual times, string attributes, and timestamped annotations
  (retries, breaker events).
- :class:`Tracer` — creates spans, assigns deterministic ids (monotonic
  counters, never wall-clock or random), keeps every span for export, and
  maintains an *ambient* activation stack so synchronous callees pick up
  their caller's span as parent without explicit plumbing.
- :class:`NullTracer` / :data:`NULL_SPAN` — the zero-cost default.  Every
  method is a no-op and ``enabled`` is False, so instrumented hot paths
  pay one attribute check and nothing else.

Determinism: ids come from per-tracer counters and times from the
simulation clock, so identical runs export byte-identical JSONL.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: HTTP header carrying the trace context across the interchange.
TRACE_HEADER = "X-Trace"

#: Spans one tracer retains; later spans still work but are only counted
#: (``spans_dropped``), so a long run cannot grow the list without bound.
MAX_SPANS = 100_000


@dataclass(frozen=True)
class TraceContext:
    """Propagated identity of one point in a trace."""

    trace_id: str
    span_id: str

    def to_header(self) -> str:
        """Serialise for the ``X-Trace`` header: ``trace_id;span_id``."""
        return f"{self.trace_id};{self.span_id}"

    @staticmethod
    def from_header(value: str) -> "TraceContext | None":
        """Parse an ``X-Trace`` header; None for anything malformed (a
        foreign or garbled header must never break a request)."""
        if not value:
            return None
        head, sep, tail = value.partition(";")
        head, tail = head.strip(), tail.strip()
        if not sep or not head or not tail:
            return None
        return TraceContext(trace_id=head, span_id=tail)


@dataclass
class Span:
    """One timed operation inside a trace."""

    context: TraceContext
    name: str
    island: str = ""
    kind: str = "internal"
    parent_id: str = ""
    start: float = 0.0
    end: float | None = None
    status: str = "ok"
    error: str = ""
    attributes: dict[str, Any] = field(default_factory=dict)
    #: Timestamped events inside the span: ``[{"time": t, "message": m}]``.
    annotations: list[dict[str, Any]] = field(default_factory=list)
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    #: Real spans record; :data:`NULL_SPAN` reports False so callers can
    #: skip building expensive labels.
    recording = True

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def annotate(self, message: str) -> "Span":
        """Record a timestamped event (stamped from the tracer's clock)."""
        now = self._tracer.now if self._tracer is not None else self.start
        self.annotations.append({"time": now, "message": message})
        return self

    def finish(self, error: BaseException | None = None) -> "Span":
        """End the span at the current virtual time.  Idempotent: a second
        call leaves the first end time in place."""
        if self.end is None:
            self.end = self._tracer.now if self._tracer is not None else self.start
            if error is not None:
                self.status = "error"
                self.error = f"{type(error).__name__}: {error}"
            if self._tracer is not None:
                self._tracer._notify_finish(self)
        return self

    def to_record(self) -> dict[str, Any]:
        """The JSONL export record (plain JSON types only)."""
        return {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "island": self.island,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "error": self.error,
            "attributes": self.attributes,
            "annotations": self.annotations,
        }


class _NullSpan(Span):
    """The do-nothing span handed out by a disabled tracer."""

    recording = False

    def __init__(self) -> None:
        super().__init__(context=TraceContext("", ""), name="")

    def set_attribute(self, key: str, value: Any) -> "Span":
        return self

    def annotate(self, message: str) -> "Span":
        return self

    def finish(self, error: BaseException | None = None) -> "Span":
        return self


#: Shared no-op span: every mutator is a no-op, ``recording`` is False.
NULL_SPAN = _NullSpan()


class _NullActivation:
    """The activation of a span that records nothing: a shared, stateless
    context manager, so entering one costs no generator and no
    ``contextlib`` wrapper."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_ACTIVATION = _NullActivation()


class Tracer:
    """Creates, activates and retains spans for one simulation.

    One tracer is shared by every island in a home (they share the
    :class:`~repro.net.simkernel.Simulator` too), which is what makes a
    bridged call a *single* trace spanning islands.
    """

    enabled = True

    def __init__(self, sim: Any) -> None:
        #: Anything with a ``now`` attribute (normally the Simulator).
        self.sim = sim
        self.spans: list[Span] = []
        self.spans_dropped = 0
        self._trace_seq = 0
        self._span_seq = 0
        self._active: list[Span] = []
        self._finish_listeners: list[Any] = []

    @property
    def now(self) -> float:
        return self.sim.now

    # -- span creation ------------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        island: str = "",
        kind: str = "internal",
        parent: "Span | TraceContext | None" = None,
    ) -> Span:
        """Open a span.

        ``parent`` may be a :class:`Span`, a :class:`TraceContext` (e.g.
        parsed from an ``X-Trace`` header), or None — in which case the
        ambient active span (if any) is the parent, and failing that a
        fresh trace is started.
        """
        if parent is None:
            parent = self.current()
        if isinstance(parent, Span):
            parent = None if parent.context.trace_id == "" else parent.context
        if parent is None:
            self._trace_seq += 1
            trace_id = f"t{self._trace_seq}"
            parent_id = ""
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._span_seq += 1
        span = Span(
            context=TraceContext(trace_id, f"s{self._span_seq}"),
            name=name,
            island=island,
            kind=kind,
            parent_id=parent_id,
            start=self.now,
            _tracer=self,
        )
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.spans_dropped += 1
        return span

    def add_finish_listener(self, listener: Any) -> None:
        """``listener(span)`` on every first :meth:`Span.finish` — the
        flight recorder's feed.  Listeners must not start or finish spans."""
        self._finish_listeners.append(listener)

    def _notify_finish(self, span: Span) -> None:
        for listener in self._finish_listeners:
            listener(span)

    # -- ambient activation --------------------------------------------------

    def current(self) -> Span | None:
        """The innermost active span, or None."""
        return self._active[-1] if self._active else None

    def current_context(self) -> TraceContext | None:
        span = self.current()
        return None if span is None else span.context

    def activate(self, span: Span):
        """Context manager making ``span`` the ambient parent for spans
        created inside the ``with`` block (synchronous callees only —
        callbacks scheduled for later must carry the context explicitly)."""
        if not span.recording:
            return _NULL_ACTIVATION
        return self._activation(span)

    @contextmanager
    def _activation(self, span: Span) -> Iterator[Span]:
        self._active.append(span)
        try:
            yield span
        finally:
            self._active.pop()

    # -- export --------------------------------------------------------------

    def spans_for(self, trace_id: str) -> list[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def open_spans(self) -> list[Span]:
        """Retained spans never finished.  After a run has fully quiesced
        every started span must be finished (the testkit's span oracle);
        mid-run this simply lists what is currently in progress."""
        return [span for span in self.spans if span.end is None]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def export_jsonl(self, trace_id: str | None = None) -> str:
        """One JSON object per line, creation order, sorted keys —
        byte-identical across identical runs."""
        spans = self.spans if trace_id is None else self.spans_for(trace_id)
        return "".join(
            json.dumps(span.to_record(), sort_keys=True, separators=(",", ":")) + "\n"
            for span in spans
        )

    def write_jsonl(self, path: str, trace_id: str | None = None) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.export_jsonl(trace_id))
        return path

    def reset(self) -> None:
        """Drop retained spans (id counters keep running so ids stay
        unique within the tracer's lifetime)."""
        self.spans.clear()
        self.spans_dropped = 0


class NullTracer:
    """The zero-cost default: no spans, no state, ``enabled`` False."""

    enabled = False
    spans: tuple = ()
    spans_dropped = 0

    @property
    def now(self) -> float:
        return 0.0

    def start_span(self, name: str, **kwargs: Any) -> Span:
        return NULL_SPAN

    def current(self) -> Span | None:
        return None

    def current_context(self) -> TraceContext | None:
        return None

    def activate(self, span: Span):
        return _NULL_ACTIVATION

    def spans_for(self, trace_id: str) -> list[Span]:
        return []

    def open_spans(self) -> list[Span]:
        return []

    def trace_ids(self) -> list[str]:
        return []

    def export_jsonl(self, trace_id: str | None = None) -> str:
        return ""

    def reset(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_ms(seconds: float | None) -> str:
    return "?" if seconds is None else f"{seconds * 1000:.2f}ms"


def render_trace_tree(
    spans: "Iterable[Span] | Tracer", trace_id: str | None = None
) -> str:
    """Render one trace (or every trace) as an indented text tree.

    Each line shows the span name, the island it ran on in brackets, its
    duration, and any annotations indented beneath it.  Orphan spans
    (parent not exported) render as roots.
    """
    if isinstance(spans, (Tracer, NullTracer)):
        spans = list(spans.spans)
    else:
        spans = list(spans)
    if trace_id is not None:
        spans = [span for span in spans if span.trace_id == trace_id]
    if not spans:
        return "(no spans)"

    by_trace: dict[str, list[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    lines: list[str] = []
    for tid, members in by_trace.items():
        ids = {span.span_id for span in members}
        children: dict[str, list[Span]] = {}
        roots: list[Span] = []
        for span in members:  # creation order == start order per parent
            if span.parent_id and span.parent_id in ids:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)
        islands = sorted({span.island for span in members if span.island})
        total = max(
            (span.end for span in members if span.end is not None),
            default=None,
        )
        start = min(span.start for span in members)
        header = f"trace {tid} — {len(members)} span(s)"
        if islands:
            header += f", islands: {', '.join(islands)}"
        if total is not None:
            header += f", {_fmt_ms(total - start)}"
        lines.append(header)

        def walk(span: Span, prefix: str, is_last: bool) -> None:
            branch = "└─" if is_last else "├─"
            island = f" [{span.island}]" if span.island else ""
            status = "" if span.status == "ok" else f" !{span.status}: {span.error}"
            lines.append(
                f"{prefix}{branch} {span.name}{island} {_fmt_ms(span.duration)}{status}"
            )
            child_prefix = prefix + ("   " if is_last else "│  ")
            kids = children.get(span.span_id, [])
            for note in span.annotations:
                lines.append(
                    f"{child_prefix}{'│  ' if kids else '   '}@{note['time']:.3f}s "
                    f"{note['message']}"
                )
            for index, kid in enumerate(kids):
                walk(kid, child_prefix, index == len(kids) - 1)

        for index, root in enumerate(roots):
            walk(root, "", index == len(roots) - 1)
    return "\n".join(lines)
