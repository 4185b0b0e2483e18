"""System-wide invariants checked after (and during) every testkit run.

Each oracle states a property that must hold for *any* seed, workload and
fault schedule — declared failures are always legal, silent ones never:

- **call-completion** — every issued operation's future settles (a value
  or a declared exception); a future still pending after quiesce is a
  silently dropped call.
- **breaker-transitions** — circuit breakers only take legal edges
  (checked live via transition listeners, so an illegal flicker cannot
  hide behind a legal final state).
- **vsr-islands** — the directory (documents, gateway registry, and every
  lookup answer the workload saw) never names an island outside the spec.
- **pool-leak** — after shutdown + drain, no pooled HTTP connection is
  still open on any gateway client (idle timers must do their job; the
  check is scoped to the pools because legacy one-shot connections to
  crashed peers leak at the transport level by design).
- **span-hygiene** — when tracing is on, every started span is finished
  and every parent id resolves inside its own trace.
- **rule-dedup** — on rules-band seeds, no rule engine ever fires
  twice for one occurrence key: at-least-once event redelivery (and any
  other duplicate trigger path) must be absorbed by the engines' dedup
  windows, never turned into duplicate actions.
- **rule-schedule** — every scheduled firing a rules-band engine
  logged happened at exactly the closed-form instant
  ``epoch + offset + n * interval``: schedule state is derived, never
  accumulated, so faults and load cannot drift the timetable.
- **telemetry-soundness** — on telemetry-band seeds, the collector's
  merged per-island counter totals never exceed what that island's agent
  actually shipped (at-least-once redelivery must be deduped, never
  double-counted), and the collector's high-water sequence number never
  exceeds the agent's (no fabricated reports).  Loss is legal — reports
  ride the ordinary event plane — inflation is not.
- **event-durability** (no-lost-acked-event) — on persistence-band
  seeds, every event a journaled publisher queued for a subscriber is
  delivered there by quiesce — across any number of cold crash→restart
  cycles on either side — unless one of them is still down, or the
  event was handed over in a poll (fetch) reply, the one declared
  at-most-once window in the delivery contract.
- **replay-idempotence** — replaying any WAL twice yields byte-identical
  canonical state snapshots: recovery is a pure fold over the journal,
  with no hidden mutable inputs.
- **ring-placement** — on scale-band seeds, every document and
  gateway registration a shard replica holds belongs on that shard by
  the consistent-hash ring: placement is a pure function of
  ``(seed, shards, virtual_nodes)``, so a key on the wrong replica
  means routing and ownership disagree somewhere.
- **replica-convergence** — on scale-band seeds, once the run
  quiesces every *live* replica of a shard holds a byte-identical
  canonical state snapshot: anti-entropy must converge the group no
  matter which replica took which writes or which faults interleaved
  (permanently dead nodes are excluded — they catch up on return).
- **conservation** — per-segment delivery accounting balances, the
  monitor agrees with the segments, and every monitored drop is claimed
  by exactly one fault-report loss window.  Push event channels need no
  special case here: their held waits and streamed frames are ordinary
  TCP segments on the backbone, so the same per-segment arithmetic
  covers them (and the pool-leak oracle audits each channel's dedicated
  keep-alive client via ``World.http_clients``).  Vectored (reactor)
  transmissions are reconciled through the monitor's per-segment
  coalescing surplus: n constituent frames on one wire frame must net
  out to exactly one segment transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.resilience import CircuitBreaker
from repro.faults.plan import FaultReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testkit.topology import World
    from repro.testkit.workload import WorkloadRunner

LEGAL_BREAKER_EDGES = frozenset(
    {
        (CircuitBreaker.CLOSED, CircuitBreaker.OPEN),
        (CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN),
        (CircuitBreaker.HALF_OPEN, CircuitBreaker.CLOSED),
        (CircuitBreaker.HALF_OPEN, CircuitBreaker.OPEN),
        # record_success while OPEN (a straggler reply beating the reset
        # timer) legally snaps the breaker closed.
        (CircuitBreaker.OPEN, CircuitBreaker.CLOSED),
    }
)


@dataclass(frozen=True)
class Violation:
    oracle: str
    message: str
    op_index: int | None = None

    def render(self) -> str:
        prefix = f"op#{self.op_index} " if self.op_index is not None else ""
        return f"[{self.oracle}] {prefix}{self.message}"


class InvariantSuite:
    """Installs live probes at world-build time; judge with :meth:`finish`."""

    def __init__(self, world: "World") -> None:
        self.world = world
        self.violations: list[Violation] = []
        self.breaker_transitions: list[tuple[str, str, str, str]] = []
        for name, island in world.mm.islands.items():
            island.gateway.resilience.add_transition_listener(
                lambda remote, old, new, _home=name: self._on_transition(
                    _home, remote, old, new
                )
            )

    # -- live probes ---------------------------------------------------------

    def _on_transition(self, home: str, remote: str, old: str, new: str) -> None:
        self.breaker_transitions.append((home, remote, old, new))
        if (old, new) not in LEGAL_BREAKER_EDGES:
            self.violations.append(
                Violation(
                    "breaker-transitions",
                    f"{home}'s breaker for {remote} took illegal edge "
                    f"{old} -> {new}",
                )
            )

    # -- post-run judgement --------------------------------------------------

    def finish(self, runner: "WorkloadRunner", report: FaultReport) -> list[Violation]:
        self._check_call_completion(runner)
        self._check_vsr(runner)
        self._check_pools()
        self._check_spans()
        self._check_rules()
        self._check_telemetry()
        self._check_event_durability()
        self._check_replay_idempotence()
        self._check_federation()
        self._check_conservation(report)
        return self.violations

    def _check_call_completion(self, runner: "WorkloadRunner") -> None:
        for op, entry in runner.unresolved():
            self.violations.append(
                Violation(
                    "call-completion",
                    f"{op.describe()} never resolved (issued at t={entry['time']:g})",
                    op_index=op.index,
                )
            )

    def _check_vsr(self, runner: "WorkloadRunner") -> None:
        known = set(self.world.spec.island_names)
        # Scale-band stub islands are seeded directory data, not spec
        # islands; the directory naming them is expected, not phantom.
        known |= set(self.world.scale_stubs)
        directory = self.world.federation.view
        for document in directory.find({}):
            island = document.context.get("island", "")
            if island not in known:
                self.violations.append(
                    Violation(
                        "vsr-islands",
                        f"directory lists {document.service!r} on unknown "
                        f"island {island!r}",
                    )
                )
        for island in directory.gateways():
            if island not in known:
                self.violations.append(
                    Violation(
                        "vsr-islands",
                        f"gateway registry names unknown island {island!r}",
                    )
                )
        for op_index, island in runner.lookup_results:
            if island not in known:
                self.violations.append(
                    Violation(
                        "vsr-islands",
                        f"lookup resolved to unknown island {island!r}",
                        op_index=op_index,
                    )
                )

    def _check_pools(self) -> None:
        for label, http in self.world.http_clients():
            open_entries = http.open_connections()
            if open_entries:
                self.violations.append(
                    Violation(
                        "pool-leak",
                        f"{label} still holds {len(open_entries)} pooled "
                        f"connection(s) after quiesce",
                    )
                )

    def _check_spans(self) -> None:
        if not self.world.obs.enabled:
            return
        tracer = self.world.obs.tracer
        for span in tracer.open_spans():
            self.violations.append(
                Violation(
                    "span-hygiene",
                    f"span {span.span_id} ({span.name}) started at "
                    f"t={span.start:g} was never finished",
                )
            )
        if tracer.spans_dropped:
            return  # parents may legitimately be missing from a clipped trace
        by_trace: dict[str, set[str]] = {}
        for span in tracer.spans:
            by_trace.setdefault(span.trace_id, set()).add(span.span_id)
        for span in tracer.spans:
            if span.parent_id and span.parent_id not in by_trace[span.trace_id]:
                self.violations.append(
                    Violation(
                        "span-hygiene",
                        f"span {span.span_id} ({span.name}) has parent "
                        f"{span.parent_id} outside its own trace",
                    )
                )

    def _check_rules(self) -> None:
        for name, engine in sorted(self.world.rule_engines.items()):
            seen: set[tuple[str, str]] = set()
            for firing in engine.firings:
                pair = (firing.rule, firing.key)
                if pair in seen:
                    self.violations.append(
                        Violation(
                            "rule-dedup",
                            f"engine on {name}: rule {firing.rule!r} fired "
                            f"twice for occurrence {firing.key!r}",
                        )
                    )
                seen.add(pair)
            rules = {rule.name: rule for rule in engine.rules}
            for entry in engine.schedule_log:
                rule = rules.get(entry["rule"])
                if rule is None:
                    self.violations.append(
                        Violation(
                            "rule-schedule",
                            f"engine on {name}: schedule log names unknown "
                            f"rule {entry['rule']!r}",
                        )
                    )
                    continue
                trigger = rule.triggers[entry["trigger"]]
                expected = trigger.occurrence(engine.epoch, entry["n"])
                if entry["due"] != expected:
                    self.violations.append(
                        Violation(
                            "rule-schedule",
                            f"engine on {name}: {entry['rule']} occurrence "
                            f"n={entry['n']} logged due={entry['due']!r} but "
                            f"closed form gives {expected!r}",
                        )
                    )
                elif entry["fired_at"] != entry["due"]:
                    self.violations.append(
                        Violation(
                            "rule-schedule",
                            f"engine on {name}: {entry['rule']} occurrence "
                            f"n={entry['n']} fired at t={entry['fired_at']!r}, "
                            f"not its due instant t={entry['due']!r}",
                        )
                    )

    def _check_telemetry(self) -> None:
        collector = self.world.telemetry_collector
        if collector is None:
            return
        for name, agent in sorted(self.world.telemetry_agents.items()):
            max_seq = collector.island_max_seq(name)
            if max_seq > agent.seq:
                self.violations.append(
                    Violation(
                        "telemetry-soundness",
                        f"collector holds seq {max_seq} for {name} but its "
                        f"agent only emitted {agent.seq} reports",
                    )
                )
            merged = collector.island_totals(name)
            for key, total in sorted(merged.items()):
                shipped = agent.emitted_totals.get(key, 0)
                # Strictly > with a float tolerance: sequence-ordered
                # folding re-adds the same increments the agent summed,
                # so any real excess means a duplicate was applied.
                if total > shipped + 1e-9:
                    self.violations.append(
                        Violation(
                            "telemetry-soundness",
                            f"collector merged {total!r} for {name}:{key} "
                            f"but the agent only shipped {shipped!r} — "
                            f"redelivery was double-counted",
                        )
                    )

    def _check_event_durability(self) -> None:
        journals = self.world.journals
        if not journals:
            return
        islands = self.world.mm.islands

        def alive(name: str) -> bool:
            island = islands.get(name)
            return island is not None and island.gateway.node.alive

        for pub_name, island in sorted(islands.items()):
            if pub_name not in journals or not alive(pub_name):
                continue  # permanently dead publishers owe nothing yet
            router = island.gateway.events
            for (sub_name, seq), event in sorted(router.retention_obligations.items()):
                if not alive(sub_name):
                    continue  # the subscriber never came back; nothing to deliver to
                subscriber = islands[sub_name].gateway.events
                if (pub_name, seq) in subscriber.delivered_keys:
                    continue
                if (sub_name, seq) in router.fetch_discharged:
                    # Handed over in a poll reply: the fetch response wire
                    # is the delivery contract's declared at-most-once
                    # window, so a reply lost to a fault is legal loss.
                    continue
                self.violations.append(
                    Violation(
                        "event-durability",
                        f"{pub_name} queued event seq={seq} "
                        f"(topic {event.get('topic', '?')!r}) for {sub_name} "
                        f"but it was never delivered, despite both sides "
                        f"being up after quiesce",
                    )
                )

    def _check_replay_idempotence(self) -> None:
        journals = dict(self.world.journals)
        if self.world.directory_journal is not None:
            journals["uddi-directory"] = self.world.directory_journal
        for label, journal in sorted(journals.items()):
            if journal.store.closed:
                continue  # crashed for good; the tail stands where it fell
            first = journal.snapshot_json()
            second = journal.snapshot_json()
            if first != second:
                self.violations.append(
                    Violation(
                        "replay-idempotence",
                        f"journal {label!r}: two replays of the same WAL "
                        f"disagree — recovery is not a pure fold",
                    )
                )

    def _check_federation(self) -> None:
        federation = self.world.federation
        from repro.core.vsr import gateway_ring_key

        ring = federation.ring
        for shard, group in enumerate(federation.replicas):
            for replica in group:
                directory = replica.directory
                name = replica.endpoint.name
                for service in directory.service_names():
                    owner = ring.owner(service)
                    if owner != shard:
                        self.violations.append(
                            Violation(
                                "ring-placement",
                                f"{name} (shard {shard}) holds document "
                                f"{service!r} owned by shard {owner}",
                            )
                        )
                for island in directory.gateways():
                    owner = ring.owner(gateway_ring_key(island))
                    if owner != shard:
                        self.violations.append(
                            Violation(
                                "ring-placement",
                                f"{name} (shard {shard}) registers gateway "
                                f"{island!r} owned by shard {owner}",
                            )
                        )
            live = [
                replica for replica in group if replica.node.alive
            ]
            if len(live) < 2:
                continue  # nothing to compare (or peers died for good)
            baseline = live[0].directory.canonical_state_json()
            for replica in live[1:]:
                state = replica.directory.canonical_state_json()
                if state != baseline:
                    self.violations.append(
                        Violation(
                            "replica-convergence",
                            f"shard {shard}: {replica.endpoint.name} state "
                            f"diverges from {live[0].endpoint.name} after "
                            f"quiesce — anti-entropy never converged",
                        )
                    )

    def _check_conservation(self, report: FaultReport) -> None:
        monitored_frames = 0
        monitored_drops = 0
        for segment in self.world.segments():
            if segment.frames_delivered + segment.frames_blocked != segment.delivery_opportunities:
                self.violations.append(
                    Violation(
                        "conservation",
                        f"{segment.name}: delivered {segment.frames_delivered} "
                        f"+ blocked {segment.frames_blocked} != opportunities "
                        f"{segment.delivery_opportunities}",
                    )
                )
            by_protocol = self.world.monitor.per_segment.get(segment.name, {})
            seg_frames = sum(stats.frames for stats in by_protocol.values())
            seg_drops = sum(stats.dropped_frames for stats in by_protocol.values())
            # The monitor tallies vectored transmissions by constituent
            # (n logical frames per wire frame); the segment counts wire
            # transmissions.  Subtract the recorded surplus so the same
            # arithmetic holds whether or not the reactor coalesced.
            frames_extra = self.world.monitor.coalesced_extra_per_segment.get(
                segment.name, 0
            )
            drops_extra = self.world.monitor.coalesced_dropped_extra_per_segment.get(
                segment.name, 0
            )
            monitored_frames += seg_frames - frames_extra
            monitored_drops += seg_drops - drops_extra
            if seg_frames - frames_extra != segment.frames_sent:
                self.violations.append(
                    Violation(
                        "conservation",
                        f"{segment.name}: monitor saw {seg_frames} frames "
                        f"({frames_extra} from coalescing) but segment sent "
                        f"{segment.frames_sent}",
                    )
                )
        claimed = report.total_observed("frames_dropped")
        if monitored_drops != claimed:
            self.violations.append(
                Violation(
                    "conservation",
                    f"monitor counted {monitored_drops} dropped frames but the "
                    f"fault report claims {claimed} — "
                    f"{'unaccounted losses' if monitored_drops > claimed else 'phantom losses'}",
                )
            )
