"""Per-node flight recorder: a bounded black box dumped on failure.

When a node crashes, a watchdog reaps a wedged exchange, or a testkit
oracle fails, the question is always "what was this node doing just
before?" — and by then the evidence is gone unless something was already
recording.  A :class:`FlightRecorder` is that something: a bounded ring
buffer of recent spans, wire frames, breaker transitions and rule
firings, fed by cheap listeners on the existing observability seams:

- :meth:`watch_tracer` — every finished span (via the tracer's
  finish listeners), filtered to this node's island;
- :meth:`watch_monitor` — every frame a :class:`TrafficMonitor`
  records (the monitor's ``frame_listeners`` configuration hook);
- :meth:`watch_breakers` — every circuit-breaker state transition
  (:meth:`~repro.core.resilience.ResilientExecutor.add_transition_listener`);
- :meth:`watch_engine` — every rule firing
  (:meth:`~repro.rules.engine.RuleEngine.add_firing_listener`).

Recording never touches the wire or the virtual clock: a run with
recorders installed is byte-identical to one without.  :meth:`trigger`
freezes the current ring into a dump — a plain, JSON-ready dict — and
:meth:`dump_json` renders it with sorted keys and compact separators, so
two identical runs produce byte-identical artifacts (the testkit ships
these next to shrunk repros).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any

#: Ring capacity: enough to cover several seconds of a busy node without
#: letting a pathological run hoard memory.
CAPACITY = 256

#: Frozen dumps retained per recorder; later triggers past the cap only
#: bump ``triggers`` so a crash loop cannot balloon the artifact.
MAX_DUMPS = 8


class FlightRecorder:
    """Bounded ring buffer of recent events on one node."""

    def __init__(self, sim: Any, node: str = "") -> None:
        self.sim = sim
        self.node = node
        self.records: deque[dict[str, Any]] = deque(maxlen=CAPACITY)
        #: Entries pushed out of the ring — truncation is visible, never
        #: silent (the TrafficMonitor ``trace_dropped`` contract).
        self.dropped = 0
        #: Frozen dumps, oldest first (bounded by :data:`MAX_DUMPS`).
        self.dumps: list[dict[str, Any]] = []
        self.triggers = 0

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, **data: Any) -> None:
        """Append one timestamped record; oldest entries fall out first."""
        if len(self.records) == CAPACITY:
            self.dropped += 1
        entry: dict[str, Any] = {"time": self.sim.now, "kind": kind}
        entry.update(data)
        self.records.append(entry)

    # -- listener wiring -----------------------------------------------------

    def watch_tracer(self, tracer: Any, island: str = "") -> "FlightRecorder":
        """Record every finished span (optionally only ``island``'s own —
        sub-labels like ``jini0.vsr`` count as the island's)."""
        add = getattr(tracer, "add_finish_listener", None)
        if add is None:
            return self

        def on_span(span: Any) -> None:
            if island and not (
                span.island == island or span.island.startswith(island + ".")
            ):
                return
            self.record(
                "span",
                name=span.name,
                island=span.island,
                span_kind=span.kind,
                span_id=span.span_id,
                trace_id=span.trace_id,
                start=span.start,
                status=span.status,
            )

        add(on_span)
        return self

    def watch_monitor(self, monitor: Any) -> "FlightRecorder":
        """Record every frame the monitor sees (wire-level context)."""
        monitor.frame_listeners.append(
            lambda segment, protocol, size, dropped: self.record(
                "frame", segment=segment, protocol=protocol, size=size, dropped=dropped
            )
        )
        return self

    def watch_breakers(self, executor: Any, home: str = "") -> "FlightRecorder":
        """Record every breaker transition on ``executor``."""
        executor.add_transition_listener(
            lambda island, old, new: self.record(
                "breaker", home=home, island=island, old=old, new=new
            )
        )
        return self

    def watch_heartbeat(self, heartbeat: Any, home: str = "") -> "FlightRecorder":
        """Record heartbeat liveness flips seen from ``home``'s monitor."""
        add = getattr(heartbeat, "add_listener", None)
        if add is None:
            return self
        add(
            lambda island, alive, record: self.record(
                "heartbeat", home=home, island=island, alive=alive
            )
        )
        return self

    def watch_engine(self, engine: Any) -> "FlightRecorder":
        """Record every rule firing on ``engine``."""
        engine.add_firing_listener(
            lambda firing: self.record(
                "rule_firing",
                engine=engine.label,
                rule=firing.rule,
                key=firing.key,
                trigger=firing.trigger_kind,
            )
        )
        return self

    # -- dumping -------------------------------------------------------------

    def dump(self, reason: str) -> dict[str, Any]:
        """Freeze the current ring into a plain, JSON-ready dict."""
        return {
            "node": self.node,
            "reason": reason,
            "dumped_at": self.sim.now,
            "capacity": CAPACITY,
            "dropped": self.dropped,
            "records": [dict(entry) for entry in self.records],
        }

    def trigger(self, reason: str) -> dict[str, Any] | None:
        """Dump on a failure signal (crash, watchdog reap, oracle failure).

        Retains up to :data:`MAX_DUMPS` dumps; past the cap the trigger is
        counted but the artifact stops growing.  Returns the dump (or
        None once capped).
        """
        self.triggers += 1
        if len(self.dumps) >= MAX_DUMPS:
            return None
        frozen = self.dump(reason)
        self.dumps.append(frozen)
        return frozen

    def dump_json(self, dump: dict[str, Any] | None = None) -> str:
        """Deterministic JSON for one dump (default: the most recent)."""
        if dump is None:
            dump = self.dumps[-1] if self.dumps else self.dump("manual")
        return json.dumps(dump, sort_keys=True, separators=(",", ":"))


def dumps_json(recorders: dict[str, FlightRecorder]) -> str:
    """One deterministic JSON artifact for a set of recorders' dumps
    (only recorders that actually dumped appear)."""
    merged = {
        name: recorder.dumps
        for name, recorder in sorted(recorders.items())
        if recorder.dumps
    }
    return json.dumps(merged, sort_keys=True, separators=(",", ":"))
