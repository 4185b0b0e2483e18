"""Live federation telemetry: streamed metric deltas + a merging collector.

PR 3's ``repro.obs`` answers questions inside one process after the run;
this module makes the *federation* observable while it is live.  Two
halves:

- :class:`TelemetryAgent` — mounted on a gateway, it periodically emits a
  delta-encoded, sequence-numbered report of its island's slice of the
  shared :class:`~repro.obs.metrics.MetricsRegistry` (which tracks its
  node's reactor as ``reactor.<island>.*``), as an
  ``obs.telemetry.<island>`` event.  Reports ride the ordinary event
  interchange — streamed push channels where negotiated, polling
  otherwise — so telemetry needs no side channel and inherits the event
  plane's resilience.
- :class:`TelemetryCollector` — mountable on any gateway, it subscribes
  to ``obs.telemetry.*`` and merges every island's reports into one
  deterministic federation snapshot, scoring health per island
  (:mod:`repro.obs.health`) against the host gateway's own heartbeat and
  breaker state.

Delta discipline (what makes the merge safe under the event plane's
at-least-once delivery):

- **Counters ship as increments** since the agent's previous report, so
  merging is a commutative sum: reordered reports converge to the same
  totals.  Duplicated reports are dropped by sequence number before they
  are applied, so redelivery cannot double-count.
- **Gauges ship as absolute values** and the collector keeps the ones
  from the highest sequence number seen, so a stale reordered report can
  never overwrite fresher levels.
- **Determinism**: float increments are folded in *sequence* order (not
  arrival order) — contiguously applied reports fold into a base, the
  out-of-order tail folds at read time — so the federation snapshot is
  byte-identical however the wire reordered or duplicated the reports
  (pinned by tests/obs/test_telemetry.py).

Schedule discipline: ticks run on the drift-free closed form
``epoch + n * interval`` (the PR 6 rule-schedule contract) — the next
tick is computed from the tick count, never from "now + interval", so
load cannot drift the cadence.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.obs.health import STATUS_LEVEL, HealthPolicy, score_island, score_replica

#: Telemetry reports publish under ``obs.telemetry.<island>``; the
#: collector subscribes to the prefix pattern.
TELEMETRY_TOPIC_PREFIX = "obs.telemetry."

#: Report schema version (future agents may extend the payload).
REPORT_VERSION = 1


class TelemetryAgent:
    """Streams one island's metric deltas on a drift-free schedule."""

    def __init__(
        self,
        vsg: Any,
        interval: float = 5.0,
        enabled: bool = True,
    ) -> None:
        self.vsg = vsg
        self.sim = vsg.sim
        self.island = vsg.island
        self.interval = interval
        #: A disabled agent is pure wiring: no subscription, no ticks, no
        #: publishes — the C12 benchmark pins it wire-byte-identical to no
        #: agent at all.
        self.enabled = enabled
        self.seq = 0
        self.reports_emitted = 0
        self._last_monotonic: dict[str, float] = {}
        #: Cumulative increments ever shipped, per counter — the testkit's
        #: telemetry oracle checks the collector never exceeds these.
        self.emitted_totals: dict[str, float] = {}
        self._epoch = 0.0
        self._ticks = 0
        self._timer: Any = None
        self._running = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin ticking: occurrence ``n`` fires at ``epoch + n*interval``
        (n >= 1), each instant computed from the closed form."""
        if self._running or not self.enabled or self.interval <= 0:
            return
        self._running = True
        self._epoch = self.sim.now
        self._ticks = 0
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def occurrence(self, n: int) -> float:
        """Closed-form due instant of the ``n``-th report (1-based)."""
        return self._epoch + n * self.interval

    def _schedule_next(self) -> None:
        due = self.occurrence(self._ticks + 1)
        self._timer = self.sim.schedule(due - self.sim.now, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self._ticks += 1
        self.emit()
        self._schedule_next()

    # -- report construction -------------------------------------------------

    def _in_scope(self, name: str) -> bool:
        """This island's metrics: the island name as a dotted component
        (``vsg.jini0.calls_out``, ``http.jini0.vsr.requests``, ...)."""
        return self.island in name.split(".")

    def collect(self) -> tuple[dict[str, float], dict[str, float]]:
        """Absolute ``(monotonic, level)`` values in this agent's scope.

        Empty with observability off, so a world whose registry only
        tracks counts ships empty reports, as it always has.  Names read
        through a mapping of records (breakers, health records) are not
        shipped: a record can leave its mapping, and reports carry
        counters as increments.
        """
        monotonic: dict[str, float] = {}
        level: dict[str, float] = {}
        obs = self.vsg.obs
        if obs.enabled:
            mono_all, level_all = obs.metrics.snapshot_typed(records=False)
            for name, value in mono_all.items():
                if self._in_scope(name):
                    monotonic[name] = value
            for name, value in level_all.items():
                if value is not None and self._in_scope(name):
                    level[name] = value
        return monotonic, level

    def build_report(self) -> dict[str, Any]:
        """Next delta report (advances the sequence and the delta base)."""
        monotonic, level = self.collect()
        deltas: dict[str, float] = {}
        for name in sorted(monotonic):
            value = monotonic[name]
            increment = value - self._last_monotonic.get(name, 0)
            if increment:
                deltas[name] = increment
                self._last_monotonic[name] = value
                self.emitted_totals[name] = (
                    self.emitted_totals.get(name, 0) + increment
                )
        self.seq += 1
        return {
            "v": REPORT_VERSION,
            "island": self.island,
            "seq": self.seq,
            "time": self.sim.now,
            "interval": self.interval,
            "counters": deltas,
            "gauges": {name: level[name] for name in sorted(level)},
        }

    def emit(self) -> dict[str, Any] | None:
        """Build and publish one report (even an empty delta: the report
        itself is the island's telemetry heartbeat)."""
        if not self.enabled:
            return None
        report = self.build_report()
        self.reports_emitted += 1
        self.vsg.publish_event(TELEMETRY_TOPIC_PREFIX + self.island, report)
        return report


class _IslandView:
    """Merged telemetry state for one reporting island."""

    __slots__ = (
        "island",
        "base",
        "floor",
        "pending",
        "max_seq",
        "gauges",
        "gauge_seq",
        "last_time",
        "interval",
        "duplicates",
        "window",
    )

    def __init__(self, island: str) -> None:
        self.island = island
        #: Counters folded from the contiguous prefix of sequences
        #: (1..floor), folded strictly in sequence order.
        self.base: dict[str, float] = {}
        self.floor = 0
        #: Out-of-order tail: seq -> counter increments, not yet folded.
        self.pending: dict[int, dict[str, float]] = {}
        self.max_seq = 0
        self.gauges: dict[str, float] = {}
        self.gauge_seq = 0
        #: Freshest report timestamp applied (staleness is measured from
        #: this, never from arrival time).
        self.last_time = 0.0
        self.interval = 0.0
        self.duplicates = 0
        #: Rolling window entries for health scoring: (seq, time, deltas).
        self.window: list[tuple[int, float, dict[str, float]]] = []

    @property
    def reports_applied(self) -> int:
        return self.floor + len(self.pending)

    def seen(self, seq: int) -> bool:
        return seq <= self.floor or seq in self.pending

    def apply(self, seq: int, counters: dict[str, float]) -> None:
        self.pending[seq] = counters
        while self.floor + 1 in self.pending:
            self.floor += 1
            for name, increment in sorted(self.pending.pop(self.floor).items()):
                self.base[name] = self.base.get(name, 0) + increment

    def totals(self) -> dict[str, float]:
        """Cumulative counters, folded in sequence order regardless of
        arrival order — the determinism the merge promises."""
        merged = dict(self.base)
        for seq in sorted(self.pending):
            for name, increment in sorted(self.pending[seq].items()):
                merged[name] = merged.get(name, 0) + increment
        return merged

    def window_counters(self, horizon: float) -> dict[str, float]:
        """In-window increments folded in sequence order."""
        merged: dict[str, float] = {}
        for seq, time, deltas in sorted(self.window):
            if time >= horizon:
                for name, increment in sorted(deltas.items()):
                    merged[name] = merged.get(name, 0) + increment
        return merged

    def prune_window(self, horizon: float) -> None:
        self.window = [entry for entry in self.window if entry[1] >= horizon]


class TelemetryCollector:
    """Merges per-island telemetry into one federation view.

    Mount on any gateway: :meth:`mount` subscribes to the telemetry topic
    prefix everywhere (so reports stream in over push channels where
    negotiated).  Health transitions are exported live — a gauge
    ``telemetry.<host>.health.<island>`` (0 healthy / 1 degraded / 2
    unhealthy) and, when tracing is on, a ``telemetry.health`` span per
    transition — and the full federation state is one deterministic
    :meth:`federation_snapshot` away.
    """

    def __init__(self, vsg: Any, policy: HealthPolicy | None = None) -> None:
        self.vsg = vsg
        self.sim = vsg.sim
        self.island = vsg.island
        self.policy = policy or HealthPolicy()
        self._views: dict[str, _IslandView] = {}
        self.reports_applied = 0
        self.duplicates_dropped = 0
        self.malformed_dropped = 0
        # Delivery history, named without the host island so no agent
        # ships it: it depends on delivery order, and the merged view
        # must not.
        metrics = vsg.obs.metrics
        metrics.track(
            "telemetry.collector",
            self,
            "counter",
            ("reports_applied", "duplicates_dropped", "malformed_dropped"),
        )
        metrics.track_each("telemetry.collector", self._views, "counter", ["duplicates"])
        self._statuses: dict[str, str] = {}
        #: The sharded directory plane, when attached — folded into
        #: :meth:`federation_snapshot` with per-replica health verdicts.
        self._vsr_federation: Any = None
        #: Health transitions in occurrence order:
        #: ``{"island", "from", "to", "time", "reasons"}``.
        self.transitions: list[dict[str, Any]] = []
        self._listeners: list[Callable[[str, str, str], None]] = []
        # Live cross-references into the host gateway's resilience layer:
        # a heartbeat death or breaker trip re-scores the island at once,
        # without waiting for (absent) telemetry to go stale.
        heartbeat_add = getattr(getattr(vsg, "heartbeat", None), "add_listener", None)
        if heartbeat_add is not None:
            heartbeat_add(lambda island, alive, record: self._rescore(island))
        resilience = getattr(vsg, "resilience", None)
        if resilience is not None:
            resilience.add_transition_listener(
                lambda island, old, new: self._rescore(island)
            )

    # -- wiring --------------------------------------------------------------

    def mount(self) -> Any:
        """Subscribe to ``obs.telemetry.*`` everywhere; resolves to the
        number of remote gateways that accepted the announcement."""
        # Imported here: repro.core.vsg itself imports repro.obs.
        from repro.core.vsg import FullEventCallback

        return self.vsg.subscribe(
            TELEMETRY_TOPIC_PREFIX + "*", FullEventCallback(self._on_event)
        )

    def attach_federation(self, federation: Any) -> "TelemetryCollector":
        """Fold a sharded directory plane
        (:class:`repro.core.shard.VsrFederation`) into this collector's
        federation view: :meth:`federation_snapshot` grows a
        ``vsr_federation`` section with per-shard convergence state and a
        health verdict per replica — a replica whose anti-entropy lag
        exceeds the policy's staleness multiplier of one gossip cycle
        scores ``unhealthy`` (see :func:`repro.obs.health.score_replica`).
        """
        self._vsr_federation = federation
        return self

    def vsr_federation_report(self) -> dict[str, Any]:
        """Shard/replica state + health for the attached directory plane
        (empty dict when none is attached)."""
        federation = self._vsr_federation
        if federation is None:
            return {}
        stats = federation.stats()
        sync_interval = federation.config.sync_interval
        for shard_entry in stats["per_shard"]:
            group = federation.replicas[shard_entry["shard"]]
            peers = len(group) - 1
            for entry in shard_entry["replicas"]:
                entry["health"] = score_replica(
                    self.policy,
                    entry["name"],
                    convergence_lag=float(entry.get("convergence_lag", 0.0)),
                    sync_interval=sync_interval,
                    peers=peers,
                    alive=bool(entry["alive"]),
                )
        return stats

    def add_listener(self, listener: Callable[[str, str, str], None]) -> None:
        """``listener(island, old_status, new_status)`` on every health
        transition the collector observes."""
        self._listeners.append(listener)

    def _on_event(self, event: dict[str, Any]) -> None:
        payload = event.get("payload")
        if not isinstance(payload, dict):
            self.malformed_dropped += 1
            return
        self.ingest(payload)

    # -- merging -------------------------------------------------------------

    def ingest(self, report: dict[str, Any]) -> bool:
        """Apply one delta report; False when dropped (duplicate/garbled).

        Safe to call with the same report any number of times and in any
        order: application is keyed by ``(island, seq)`` and counter
        folding is sequence-ordered, so the merged state converges.
        """
        try:
            island = str(report["island"])
            seq = int(report["seq"])
            counters = dict(report.get("counters") or {})
            gauges = dict(report.get("gauges") or {})
            time = float(report.get("time", 0.0))
        except (KeyError, TypeError, ValueError):
            self.malformed_dropped += 1
            return False
        if seq <= 0:
            self.malformed_dropped += 1
            return False
        view = self._views.setdefault(island, _IslandView(island))
        if view.seen(seq):
            view.duplicates += 1
            self.duplicates_dropped += 1
            return False
        view.apply(seq, counters)
        view.max_seq = max(view.max_seq, seq)
        view.last_time = max(view.last_time, time)
        interval = float(report.get("interval", 0.0) or 0.0)
        if interval > 0:
            view.interval = interval
        if gauges and seq >= view.gauge_seq:
            view.gauge_seq = seq
            view.gauges = gauges
        view.window.append((seq, time, counters))
        view.prune_window(view.last_time - self.policy.window)
        self.reports_applied += 1
        self._rescore(island)
        return True

    # -- health --------------------------------------------------------------

    def _resilience_view(self, island: str) -> tuple[bool, str | None]:
        """(heartbeat_dead, breaker_state) as the host gateway sees them."""
        heartbeat = getattr(self.vsg, "heartbeat", None)
        record = heartbeat.health.get(island) if heartbeat is not None else None
        dead = record is not None and not record.alive
        resilience = getattr(self.vsg, "resilience", None)
        breaker = resilience.breakers.get(island) if resilience is not None else None
        return dead, breaker.state if breaker is not None else None

    def status_for(self, island: str) -> dict[str, Any]:
        """Score one island right now (see :func:`repro.obs.health.score_island`)."""
        view = self._views.get(island)
        policy = self.policy
        if view is None:
            window_counters: dict[str, float] = {}
            staleness = None
            interval = 0.0
        else:
            window_counters = view.window_counters(view.last_time - policy.window)
            staleness = self.sim.now - view.last_time
            interval = view.interval
        dead, breaker_state = self._resilience_view(island)
        return score_island(
            policy,
            island,
            window_counters,
            staleness=staleness,
            report_interval=interval,
            heartbeat_dead=dead,
            breaker_state=breaker_state,
        )

    def status(self, island: str) -> str:
        return self.status_for(island)["status"]

    def _rescore(self, island: str) -> None:
        if island == self.island and island not in self._views:
            # The host's own breaker table includes islands it calls; only
            # score islands that actually report (plus resilience targets).
            return
        health = self.status_for(island)
        new = health["status"]
        old = self._statuses.get(island, "")
        if new == old:
            return
        self._statuses[island] = new
        metrics = self.vsg.obs.metrics
        metrics.gauge(f"telemetry.{self.island}.health.{island}").set(
            STATUS_LEVEL[new]
        )
        tracer = self.vsg.obs.tracer
        if tracer.enabled:
            span = tracer.start_span(
                f"telemetry.health {island}", island=self.island, kind="internal"
            )
            span.set_attribute("island", island)
            span.set_attribute("from", old or "unknown")
            span.set_attribute("to", new)
            for reason in health["reasons"]:
                span.annotate(reason)
            span.finish()
        self.transitions.append(
            {
                "island": island,
                "from": old or "unknown",
                "to": new,
                "time": self.sim.now,
                "reasons": list(health["reasons"]),
            }
        )
        for listener in list(self._listeners):
            listener(island, old, new)

    # -- read side -----------------------------------------------------------

    def islands(self) -> list[str]:
        return sorted(self._views)

    def island_totals(self, island: str) -> dict[str, float]:
        view = self._views.get(island)
        return view.totals() if view is not None else {}

    def island_max_seq(self, island: str) -> int:
        view = self._views.get(island)
        return view.max_seq if view is not None else 0

    def federation_snapshot(self) -> dict[str, Any]:
        """One deterministic dict for the whole federation.

        Byte-identical (via :meth:`snapshot_json`) for any duplication or
        reordering of the same underlying reports: counters fold in
        sequence order, gauges come from the highest sequence, staleness
        from the freshest report timestamp.
        """
        islands: dict[str, Any] = {}
        for island in sorted(self._views):
            view = self._views[island]
            totals = view.totals()
            islands[island] = {
                "seq": view.max_seq,
                "reports": view.reports_applied,
                "time": view.last_time,
                "staleness": self.sim.now - view.last_time,
                "counters": {name: totals[name] for name in sorted(totals)},
                "gauges": {
                    name: view.gauges[name] for name in sorted(view.gauges)
                },
                "health": self.status_for(island),
            }
        snapshot: dict[str, Any] = {
            "collector": self.island,
            "time": self.sim.now,
            "islands": islands,
        }
        if self._vsr_federation is not None:
            snapshot["vsr_federation"] = self.vsr_federation_report()
        return snapshot

    def snapshot_json(self) -> str:
        return json.dumps(
            self.federation_snapshot(), sort_keys=True, separators=(",", ":")
        )
