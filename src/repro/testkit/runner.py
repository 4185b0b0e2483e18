"""One-seed end-to-end runs: generate scripts, replay, judge.

``check(seed)`` is the whole harness in one call::

    result = check(seed=7)
    assert result.ok, result.render_repro()

Everything between the seed and the verdict is deterministic: generation
is pure data (``generate``), and ``replay`` rebuilds a fresh world for the
scripts — which is also what lets the shrinker replay arbitrary subsets.

``inject_bug`` plants one of a fixed set of deliberate defects (test-only)
so the suite can prove each oracle actually fires; see ``INJECTABLE_BUGS``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultAction,
    FaultPlan,
    FaultReport,
    GatewayPause,
    LatencySpike,
    LinkLoss,
    NodeCrash,
    Partition,
)
from repro.net.simkernel import SimFuture
from repro.obs.trace import render_trace_tree
from repro.soap.http import InterchangeConfig
from repro.testkit.oracles import InvariantSuite, Violation
from repro.testkit.topology import TopologyGen, TopologySpec, World, build_world
from repro.testkit.workload import WorkloadGen, WorkloadOp, WorkloadRunner

#: Virtual seconds the world keeps running after the last scripted event,
#: with the framework shut down: long enough for every in-flight deadline
#: (≤ 15s x 3 attempts), connect timeout (30s) and idle pool timer (30s)
#: to fire, so "still pending" after this really means "leaked".
QUIESCE_MARGIN = 120.0

CONNECT_TIMEOUT = 600.0

INJECTABLE_BUGS = (
    "swallow-call",      # gateway drops get() futures -> call-completion
    "illegal-breaker",   # forces closed -> half-open    -> breaker-transitions
    "phantom-island",    # directory doc from nowhere   -> vsr-islands
    "leak-connection",   # pooled conns that never idle out -> pool-leak
    "unfinished-span",   # span started, never finished -> span-hygiene
    "uncounted-drop",    # drops frames outside any loss window -> conservation
)


class _EveryNthDrop:
    """Test-only loss model dropping every Nth frame *without* reporting
    to any fault record — exactly the accounting hole the conservation
    oracle exists to catch.  Chains like the injector's models so fault
    windows stacked on top still unwind cleanly."""

    def __init__(self, n: int, previous: Callable | None) -> None:
        self.n = n
        self.previous = previous
        self.seen = 0

    def __call__(self, frame: Any) -> bool:
        if self.previous is not None and self.previous(frame):
            return True
        self.seen += 1
        return self.seen % self.n == 0


# ---------------------------------------------------------------------------
# Fault-script generation (pure data)
# ---------------------------------------------------------------------------


class FaultPlanGen:
    """Draws a fault script — ``[(time, action), ...]`` relative to
    workload start — from the seed.  Pure data; the injector and plan are
    built fresh at replay time."""

    MAX_FAULTS = 4

    def generate(
        self,
        spec: TopologySpec,
        ops: list[WorkloadOp],
        seed: int,
        profile: str = "default",
    ) -> list[tuple[float, FaultAction]]:
        rng = random.Random(f"testkit:faults:{seed}")
        horizon = max((op.time for op in ops), default=10.0)
        segments = spec.segment_names
        nodes = spec.node_names
        faults: list[tuple[float, FaultAction]] = []
        for _ in range(rng.randint(0, self.MAX_FAULTS)):
            at = rng.uniform(0.0, horizon)
            duration = 0.0 if rng.random() < 0.1 else rng.uniform(0.5, 8.0)
            kind = rng.choices(
                ("link-loss", "latency-spike", "partition", "node-crash", "gateway-pause"),
                weights=(30, 20, 20, 15, 15),
            )[0]
            if kind == "link-loss":
                action: FaultAction = LinkLoss(
                    segment=rng.choice(segments),
                    rate=rng.uniform(0.05, 0.9),
                    duration=duration,
                )
            elif kind == "latency-spike":
                action = LatencySpike(
                    segment=rng.choice(segments),
                    extra_delay=rng.uniform(0.05, 0.4),
                    duration=duration,
                )
            elif kind == "partition":
                # Split the backbone: a random non-empty strict subset of
                # nodes on one side, everyone else implicitly together.
                cut = rng.sample(nodes, rng.randint(1, len(nodes) - 1))
                action = Partition(
                    segment="backbone",
                    groups=(frozenset(cut),),
                    duration=duration,
                )
            elif kind == "node-crash":
                restart = None if rng.random() < 0.15 else rng.uniform(0.5, 6.0)
                action = NodeCrash(node=rng.choice(nodes), restart_after=restart)
            else:
                action = GatewayPause(
                    island=rng.choice(spec.island_names), duration=duration
                )
            faults.append((at, action))
        if profile == "persistence":
            # The restart-torture band guarantees crash→restart cycles on
            # gateway nodes (drawn *after* the base script so the shared
            # prefix of the RNG stream stays identical to other bands'
            # draws for the same seed).  Every crash restarts: permanent
            # deaths are covered by the base draws; the band exists to
            # exercise recovery.
            gateways = [name for name in nodes if name.startswith("gw-")]
            for _ in range(rng.randint(1, 3)):
                at = rng.uniform(0.0, horizon)
                faults.append(
                    (
                        at,
                        NodeCrash(
                            node=rng.choice(gateways),
                            restart_after=rng.uniform(2.0, 8.0),
                        ),
                    )
                )
        faults.sort(key=lambda entry: entry[0])
        return faults


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    seed: int
    spec: TopologySpec
    ops: list[WorkloadOp]
    faults: list[tuple[float, FaultAction]]
    violations: list[Violation]
    report: FaultReport
    world: World
    runner: WorkloadRunner
    start_time: float
    end_time: float
    error: str = ""
    _metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.error

    def workload_json(self) -> str:
        return self.runner.log_json()

    def flight_dumps_json(self) -> str:
        """Deterministic JSON of every flight-recorder dump this run
        triggered (empty ``{}`` when nothing crashed or failed)."""
        from repro.obs.flight import dumps_json

        return dumps_json(self.world.flight)

    def metrics_json(self) -> str:
        """Canonical end-of-run counters; identical seeds must match bytes."""
        return json.dumps(self._metrics, sort_keys=True, separators=(",", ":"))

    def wal_dumps_json(self) -> str:
        """Deterministic JSON of every WAL journal's diagnostic dump
        (empty ``{}`` off the persistence band).  A store a crash left
        closed is reopened read-side first — the sweep ships these next
        to shrunk repros on oracle failures."""
        dumps: dict[str, Any] = {}
        journals = dict(self.world.journals)
        if self.world.directory_journal is not None:
            journals["uddi-directory"] = self.world.directory_journal
        for label, journal in sorted(journals.items()):
            if journal.store.closed:
                journal.store.reopen()
            dumps[label] = journal.dump()
        return json.dumps(dumps, sort_keys=True, separators=(",", ":"))

    def render_repro(self) -> str:
        lines = [
            f"=== testkit repro (seed={self.seed}) ===",
            self.spec.describe(),
            "",
            f"workload ({len(self.ops)} ops):",
        ]
        for op in self.ops:
            lines.append(f"  t={op.time:8.3f}  {op.describe()}")
        lines.append(f"faults ({len(self.faults)}):")
        for at, action in self.faults:
            lines.append(f"  t={at:8.3f}  {action.describe()}")
        lines.append("")
        if self.error:
            lines.append(f"run error: {self.error}")
        lines.append(f"violations ({len(self.violations)}):")
        for violation in self.violations:
            lines.append(f"  {violation.render()}")
        lines.append("")
        lines.append(self.report.render())
        if self.world.obs is not None and self.world.obs.tracer.trace_ids():
            lines.append("")
            lines.append("last trace:")
            lines.append(
                render_trace_tree(
                    self.world.obs.tracer, self.world.obs.tracer.trace_ids()[-1]
                )
            )
        return "\n".join(lines)


#: Seeds in [PUSH_SEED_BASE, PUSH_SEED_BASE + PUSH_SEED_SPAN) draw the
#: "push" profile: modern (push-channel) islands mixed with legacy ones and a
#: publish-heavy workload, so streamed event channels (and their polling
#: fallback under faults) get seeded coverage.  The band sits above the
#: historical corpus (0-29) and below the nightly sweep (10_000+), so
#: every previously pinned seed keeps its exact scripts.
PUSH_SEED_BASE = 100
PUSH_SEED_SPAN = 100

#: Seeds in [RULES_SEED_BASE, RULES_SEED_BASE + RULES_SEED_SPAN) draw the
#: "rules" profile: a push-leaning interchange mix, a publish-heavy
#: workload, and — replay-side — deterministic rule engines installed on
#: a couple of islands (see ``repro.testkit.rules_profile``) so the
#: no-duplicate-firing and schedule-determinism oracles get seeded
#: coverage under the same fault schedules as everything else.
RULES_SEED_BASE = 200
RULES_SEED_SPAN = 100

#: Seeds in [REACTOR_SEED_BASE, REACTOR_SEED_BASE + REACTOR_SEED_SPAN)
#: draw the "reactor" profile: a modern-leaning interchange mix
#: (vectored writes, zero-copy reads, pipelining) against legacy
#: peers, with a call-heavy workload so deep RPC pipelines and
#: coalesced event bursts run under the same fault schedules as the
#: older bands.  Corpus seeds 300-304 are pinned in tests/testkit.
REACTOR_SEED_BASE = 300
REACTOR_SEED_SPAN = 100

#: Seeds in [TELEMETRY_SEED_BASE, TELEMETRY_SEED_BASE +
#: TELEMETRY_SEED_SPAN) draw the "telemetry" profile: observability
#: forced on, a heartbeat floor, a push-leaning interchange mix, and —
#: replay-side — a TelemetryAgent per island streaming delta reports to
#: one drawn TelemetryCollector (see ``repro.testkit.telemetry_profile``)
#: audited by the telemetry-soundness oracle under the same fault
#: schedules as every other band.  Corpus seeds 400-404 are pinned.
TELEMETRY_SEED_BASE = 400
TELEMETRY_SEED_SPAN = 100

#: Seeds in [PERSISTENCE_SEED_BASE, PERSISTENCE_SEED_BASE +
#: PERSISTENCE_SEED_SPAN) draw the "persistence" profile — the
#: restart-torture band.  Replay-side, every gateway and the directory
#: carry a WAL journal (``repro.testkit.persistence_profile``), the
#: fault script is guaranteed 1-3 crash→restart cycles on gateway nodes
#: on top of the usual draws, and the workload is publish-heavy so the
#: crashes land amid queued/retained event traffic.  Judged by the
#: no-lost-acked-event and replay-idempotence oracles.  Corpus seeds
#: 500-504 are pinned in tests/testkit.
PERSISTENCE_SEED_BASE = 500
PERSISTENCE_SEED_SPAN = 100

#: Extra virtual seconds appended to the run window on persistence-band
#: seeds before shutdown: a cold restart late in the script still needs
#: its restart delay (≤ 8s), a channel watchdog round (~35s) and a poll
#: interval (≤ 5s) to land retained redeliveries the durability oracle
#: will demand.
PERSISTENCE_SETTLE = 90.0

#: Seeds in [SCALE_SEED_BASE, SCALE_SEED_BASE + SCALE_SEED_SPAN) draw the
#: "scale" profile — the federation band.  Topologies carry a sharded,
#: replicated directory plane (``repro.core.shard``: 4-16 shards, 2-3
#: replicas each) plus a 1k-4k-island stub catalogue installed replay-side
#: as pure directory data (``repro.testkit.scale_profile``) — no gateway
#: stacks, no wire traffic.  The workload is lookup-heavy with half the
#: lookups aimed at stub names so every shard sees cache-cold traffic,
#: and the ring-placement and replica-convergence oracles judge the run
#: alongside every historical invariant.  Corpus seeds 600-604 are
#: pinned in tests/testkit.
SCALE_SEED_BASE = 600
SCALE_SEED_SPAN = 100

#: Extra virtual seconds appended to the run window on scale-band seeds
#: before shutdown: anti-entropy rounds fire every ~2s per replica and a
#: fault landing on a replica late in the script still needs a few digest
#: →pull cycles for the convergence oracle's state comparison to settle.
SCALE_SETTLE = 30.0


def _profile_for(seed: int) -> str:
    if PUSH_SEED_BASE <= seed < PUSH_SEED_BASE + PUSH_SEED_SPAN:
        return "push"
    if RULES_SEED_BASE <= seed < RULES_SEED_BASE + RULES_SEED_SPAN:
        return "rules"
    if REACTOR_SEED_BASE <= seed < REACTOR_SEED_BASE + REACTOR_SEED_SPAN:
        return "reactor"
    if TELEMETRY_SEED_BASE <= seed < TELEMETRY_SEED_BASE + TELEMETRY_SEED_SPAN:
        return "telemetry"
    if PERSISTENCE_SEED_BASE <= seed < PERSISTENCE_SEED_BASE + PERSISTENCE_SEED_SPAN:
        return "persistence"
    if SCALE_SEED_BASE <= seed < SCALE_SEED_BASE + SCALE_SEED_SPAN:
        return "scale"
    return "default"


def generate(
    seed: int, steps: int = 40
) -> tuple[TopologySpec, list[WorkloadOp], list[tuple[float, FaultAction]]]:
    """All three scripts for a seed — pure data, no simulation."""
    profile = _profile_for(seed)
    spec = TopologyGen().generate(seed, profile=profile)
    ops = WorkloadGen().generate(spec, steps, profile=profile)
    faults = FaultPlanGen().generate(spec, ops, seed, profile=profile)
    return spec, ops, faults


def replay(
    spec: TopologySpec,
    ops: list[WorkloadOp],
    faults: list[tuple[float, FaultAction]],
    inject_bug: str | None = None,
    persist: bool | None = None,
) -> RunResult:
    """Run the scripts against a fresh world and judge every invariant.

    ``persist`` forces WAL journals on (True) or off (False) regardless
    of the seed band; the default (None) attaches them exactly on
    persistence-profile seeds.  With journals off every call site is
    inert, so non-persistence bands stay byte-identical to their pinned
    baselines.
    """
    if inject_bug is not None and inject_bug not in INJECTABLE_BUGS:
        raise ValueError(f"unknown bug {inject_bug!r}; pick from {INJECTABLE_BUGS}")
    world = build_world(spec, force_obs=(inject_bug == "unfinished-span"))
    suite = InvariantSuite(world)
    runner = WorkloadRunner(world)

    profile = _profile_for(spec.seed)
    do_persist = persist if persist is not None else (profile == "persistence")
    if do_persist:
        # Before connect: the registrations and exports connect performs
        # are exactly what a recovering gateway must replay.
        from repro.testkit.persistence_profile import install_persistence

        install_persistence(world)

    if inject_bug == "leak-connection":
        # Pooled connections whose idle timer fires but never closes
        # them: the pool keeps every connection warm forever.
        pooled = InterchangeConfig(modern=True)
        for _, http in world.http_clients():
            http.config = pooled
            http._entry_for = _never_idle_close(http._entry_for)

    error = ""
    try:
        world.sim.run_until_complete(world.mm.connect(), timeout=CONNECT_TIMEOUT)
    except Exception as exc:  # noqa: BLE001 - report, don't mask
        error = f"connect failed: {type(exc).__name__}: {exc}"

    if profile == "telemetry" and not error:
        # Mount the collector's cross-gateway subscription before the
        # workload clock starts, so report channels are open from t=0 of
        # the script (its announcement traffic is part of the band's
        # pinned wire behaviour).
        from repro.testkit.telemetry_profile import install_telemetry

        collector = install_telemetry(world)
        try:
            world.sim.run_until_complete(collector.mount(), timeout=CONNECT_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            error = f"telemetry mount failed: {type(exc).__name__}: {exc}"

    if profile == "scale" and not error:
        # Seed the stub catalogue straight into the shard primaries (pure
        # data, no wire) before the workload clock starts, so lookups at
        # t=0 already face a directory holding thousands of islands and
        # anti-entropy has the whole catalogue to replicate.
        from repro.testkit.scale_profile import install_scale

        install_scale(world)

    start = world.sim.now
    _plant_bug(inject_bug, world, start)
    if profile == "rules":
        from repro.testkit.rules_profile import install_rule_engines

        install_rule_engines(world)
        for host, engine in sorted(world.rule_engines.items()):
            journal = world.journals.get(host)
            if journal is not None:
                engine.attach_journal(journal)
            engine.start()
    # Every band flies black boxes: recorders are passive (no wire/clock
    # effects), so the historical determinism pins hold unchanged.
    from repro.testkit.blackbox import install_flight_recorders

    install_flight_recorders(world)
    for _, agent in sorted(world.telemetry_agents.items()):
        agent.start()
    runner.schedule(ops, start)

    plan = FaultPlan(seed=spec.seed)
    fault_end = start
    for at, action in faults:
        plan.at(start + at, action)
        window = getattr(action, "duration", 0.0) or 0.0
        restart = getattr(action, "restart_after", None) or 0.0
        fault_end = max(fault_end, start + at + max(window, restart))
    injector = FaultInjector(world.network, plan, mm=world.mm).arm()

    def on_fault(action: FaultAction, record: Any) -> None:
        if isinstance(action, NodeCrash) and action.node.startswith("gw-"):
            recorder = world.flight.get(action.node[3:])
            if recorder is not None:
                recorder.record("fault", description=record.description)
                recorder.trigger("node-crash")

    injector.on_fault = on_fault

    last_op = max((op.time for op in ops), default=0.0)
    end = max(start + last_op, fault_end) + 1.0
    if do_persist:
        end += PERSISTENCE_SETTLE
    if profile == "scale":
        end += SCALE_SETTLE
    world.sim.run(until=end)
    for _, engine in sorted(world.rule_engines.items()):
        engine.stop()
    for _, agent in sorted(world.telemetry_agents.items()):
        agent.stop()
    world.mm.shutdown()
    world.sim.run(until=end + QUIESCE_MARGIN)

    violations = suite.finish(runner, injector.report())
    if violations:
        # Every oracle failure ships its black boxes: the shrinker and
        # sweep attach these dumps next to the minimized repro.
        for _, recorder in sorted(world.flight.items()):
            recorder.trigger("oracle-failure")
    result = RunResult(
        seed=spec.seed,
        spec=spec,
        ops=ops,
        faults=faults,
        violations=violations,
        report=injector.report(),
        world=world,
        runner=runner,
        start_time=start,
        end_time=world.sim.now,
        error=error,
    )
    result._metrics = _snapshot_metrics(world)
    return result


def _never_idle_close(entry_for: Callable) -> Callable:
    """Wrap an ``HttpClient._entry_for`` so every pool entry it hands out
    ignores its idle timer (the leak-connection bug)."""

    def leaky_entry_for(key):
        entry = entry_for(key)
        entry._idle_close = lambda: None
        return entry

    return leaky_entry_for


def _plant_bug(inject_bug: str | None, world: World, start: float) -> None:
    if inject_bug is None:
        return
    sim = world.sim
    first = world.mm.islands[world.spec.island_names[0]].gateway
    if inject_bug == "swallow-call":
        for island in world.mm.islands.values():
            gateway = island.gateway
            original = gateway.invoke

            def swallowing(
                service: str, operation: str, args: list, _orig=original
            ) -> SimFuture:
                if operation == "get":
                    return SimFuture()  # accepted, then silently dropped
                return _orig(service, operation, args)

            gateway.invoke = swallowing  # type: ignore[method-assign]
    elif inject_bug == "illegal-breaker":
        sim.at(
            start,
            lambda: first.resilience.breaker_for("testkit-phantom")._set_state(
                "half-open"
            ),
        )
    elif inject_bug == "phantom-island":
        from repro.soap.wsdl import WsdlDocument

        sim.at(
            start,
            lambda: world.federation.view.publish(
                WsdlDocument(
                    service="Svc_phantom",
                    location="soap://0.0.0.0:1/Svc_phantom",
                    context={"island": "atlantis", "middleware": "ghost"},
                )
            ),
        )
    elif inject_bug == "unfinished-span":
        assert world.obs is not None
        sim.at(start, lambda: world.obs.tracer.start_span("testkit.leaked"))
    elif inject_bug == "uncounted-drop":
        # Installed at workload start (not during connect, which has no
        # fault tolerance) and spliced under whatever the injector stacks.
        def install() -> None:
            world.backbone.loss_model = _EveryNthDrop(7, world.backbone.loss_model)

        sim.at(start, install)
    # "leak-connection" is planted before connect in replay().


def _snapshot_metrics(world: World) -> dict[str, Any]:
    traffic = {
        protocol: {
            "frames": stats.frames,
            "bytes": stats.bytes,
            "dropped_frames": stats.dropped_frames,
        }
        for protocol, stats in sorted(world.monitor.stats.items())
    }
    segments = {
        segment.name: {
            "frames_sent": segment.frames_sent,
            "bytes_sent": segment.bytes_sent,
            "frames_delivered": segment.frames_delivered,
            "frames_blocked": segment.frames_blocked,
            "delivery_opportunities": segment.delivery_opportunities,
        }
        for segment in world.segments()
    }
    events = {
        name: {
            "published": island.gateway.events.events_published,
            "delivered": island.gateway.events.events_delivered,
            "polls": island.gateway.events.polls_performed,
            "pushed": island.gateway.events.events_pushed,
            "waits": island.gateway.events.waits_handled,
            "channels_opened": island.gateway.events.channels_opened,
            "channel_deaths": island.gateway.events.channel_deaths,
            "log_dropped": island.gateway.events.delivery_log_dropped,
        }
        for name, island in sorted(world.mm.islands.items())
    }
    snapshot: dict[str, Any] = {
        "resilience": world.mm.resilience_report(),
        "traffic": traffic,
        "segments": segments,
        "events": events,
    }
    if world.rule_engines:
        snapshot["rules"] = {
            name: {
                "fired": engine.fired_count,
                "suppressed": engine.suppressed_count,
                "actions_failed": engine.actions_failed_count,
                "firings": len(engine.firings),
                "schedule_occurrences": len(engine.schedule_log),
            }
            for name, engine in sorted(world.rule_engines.items())
        }
    if world.telemetry_collector is not None:
        snapshot["telemetry"] = {
            "federation": world.telemetry_collector.federation_snapshot(),
            "delivery": world.telemetry_collector.delivery_stats(),
            "agents": {
                name: {"seq": agent.seq, "reports": agent.reports_emitted}
                for name, agent in sorted(world.telemetry_agents.items())
            },
        }
    if world.journals or world.directory_journal is not None:
        persistence: dict[str, Any] = {}
        for name, journal in sorted(world.journals.items()):
            gateway = world.mm.islands[name].gateway
            persistence[name] = {
                "records": journal.store.records_appended,
                "bytes": journal.store.bytes_appended,
                "checkpoints": journal.checkpoints,
                "replays": journal.replays,
                "truncations": journal.truncations_detected,
                "cold_crashes": gateway.cold_crashes,
                "recoveries": gateway.recoveries,
            }
        if world.directory_journal is not None:
            directory = world.mm.uddi.directory
            persistence["uddi-directory"] = {
                "records": world.directory_journal.store.records_appended,
                "bytes": world.directory_journal.store.bytes_appended,
                "checkpoints": world.directory_journal.checkpoints,
                "replays": world.directory_journal.replays,
                "truncations": world.directory_journal.truncations_detected,
                "cold_crashes": directory.cold_crashes,
                "recoveries": directory.recoveries,
            }
        snapshot["persistence"] = persistence
    snapshot["federation"] = world.federation.stats()
    if world.obs is not None:
        snapshot["metrics"] = world.obs.metrics.snapshot()
        snapshot["spans"] = len(world.obs.tracer.spans)
    return snapshot


def check(
    seed: int,
    steps: int = 40,
    inject_bug: str | None = None,
    persist: bool | None = None,
) -> RunResult:
    """Generate + replay + judge one seed."""
    spec, ops, faults = generate(seed, steps)
    return replay(spec, ops, faults, inject_bug=inject_bug, persist=persist)


def sweep(
    seeds: list[int],
    steps: int = 40,
    inject_bug: str | None = None,
    persist: bool | None = None,
) -> list[RunResult]:
    """Run many seeds; return only the failing results."""
    failures = []
    for seed in seeds:
        result = check(seed, steps=steps, inject_bug=inject_bug, persist=persist)
        if not result.ok:
            failures.append(result)
    return failures
