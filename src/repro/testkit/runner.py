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
from repro.testkit.bands import BANDS, band_for
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
    workload start — from the seed, then the band's ``extra_faults``.
    Pure data; the injector and plan are built fresh at replay time."""

    MAX_FAULTS = 4

    def generate(
        self, spec: TopologySpec, ops: list[WorkloadOp], seed: int
    ) -> list[tuple[float, FaultAction]]:
        band = band_for(seed)
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
        if band.extra_faults is not None:
            faults.extend(band.extra_faults(spec, rng, horizon))
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
        """Canonical end-of-run metrics: the world's registry snapshot
        (``metrics``), the directory plane's report (``federation``), the
        telemetry collector's fold (``telemetry``, when one ran) and the
        span count (``spans``, when tracing was on).  Identical seeds
        must match bytes."""
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

    def artifacts(self) -> dict[str, str]:
        """What a failing run ships, by kind: the repro, the flight
        dumps, the end-of-run metrics, the WAL dumps (when a journal was
        attached) and the ring layout (on a sharded plane: placement and
        convergence failures only make sense against the vnodes the seed
        drew)."""
        shipped = {
            "repro": self.render_repro(),
            "flight": self.flight_dumps_json(),
            "metrics": self.metrics_json(),
        }
        wal_dumps = self.wal_dumps_json()
        if wal_dumps != "{}":
            shipped["wal"] = wal_dumps
        if self.spec.federation_shards:
            shipped["ring"] = json.dumps(self.world.federation.ring_dump(), indent=2)
        return shipped

    def render_repro(self) -> str:
        lines = [
            f"=== testkit repro (seed={self.seed} band={band_for(self.seed).name}) ===",
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
        if self.world.obs.tracer.trace_ids():
            lines.append("")
            lines.append("last trace:")
            lines.append(
                render_trace_tree(
                    self.world.obs.tracer, self.world.obs.tracer.trace_ids()[-1]
                )
            )
        return "\n".join(lines)


def generate(
    seed: int, steps: int = 40
) -> tuple[TopologySpec, list[WorkloadOp], list[tuple[float, FaultAction]]]:
    """All three scripts for a seed — pure data, no simulation."""
    spec = TopologyGen().generate(seed)
    ops = WorkloadGen().generate(spec, steps)
    faults = FaultPlanGen().generate(spec, ops, seed)
    return spec, ops, faults


def replay(
    spec: TopologySpec,
    ops: list[WorkloadOp],
    faults: list[tuple[float, FaultAction]],
    inject_bug: str | None = None,
    persist: bool = False,
) -> RunResult:
    """Run the scripts against a fresh world and judge every invariant.

    The seed's band installs its subsystems around ``connect()``.
    ``persist`` also applies the persistence band's journals and settle
    time to a seed of another band.
    """
    if inject_bug is not None and inject_bug not in INJECTABLE_BUGS:
        raise ValueError(f"unknown bug {inject_bug!r}; pick from {INJECTABLE_BUGS}")
    world = build_world(spec, force_obs=(inject_bug == "unfinished-span"))
    suite = InvariantSuite(world)
    runner = WorkloadRunner(world)

    band = band_for(spec.seed)
    durable = BANDS["persistence"]
    bands = (durable, band) if persist and band is not durable else (band,)
    for each in bands:
        if each.before_connect is not None:
            each.before_connect(world)

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

    for each in bands:
        if error or each.after_connect is None:
            continue
        pending = each.after_connect(world)
        try:
            if pending is not None:
                world.sim.run_until_complete(pending, timeout=CONNECT_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            error = f"{each.name} setup failed: {type(exc).__name__}: {exc}"

    start = world.sim.now
    _plant_bug(inject_bug, world, start)
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
    end = max(start + last_op, fault_end) + 1.0 + sum(each.settle for each in bands)
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
        assert world.obs.enabled
        sim.at(start, lambda: world.obs.tracer.start_span("testkit.leaked"))
    elif inject_bug == "uncounted-drop":
        # Installed at workload start (not during connect, which has no
        # fault tolerance) and spliced under whatever the injector stacks.
        def install() -> None:
            world.backbone.loss_model = _EveryNthDrop(7, world.backbone.loss_model)

        sim.at(start, install)
    # "leak-connection" is planted before connect in replay().


def _snapshot_metrics(world: World) -> dict[str, Any]:
    """The world's registry, plus the two status reports that are not
    counters: the directory plane's and the telemetry collector's fold."""
    snapshot: dict[str, Any] = {
        "metrics": world.obs.metrics.snapshot(),
        "federation": world.federation.stats(),
    }
    if world.telemetry_collector is not None:
        snapshot["telemetry"] = world.telemetry_collector.federation_snapshot()
    if world.obs.enabled:
        snapshot["spans"] = len(world.obs.tracer.spans)
    return snapshot


def check(seed: int, steps: int = 40, inject_bug: str | None = None) -> RunResult:
    """Generate + replay + judge one seed."""
    spec, ops, faults = generate(seed, steps)
    return replay(spec, ops, faults, inject_bug=inject_bug)


def sweep(
    seeds: list[int], steps: int = 40, inject_bug: str | None = None
) -> list[RunResult]:
    """Run many seeds; return only the failing results."""
    failures = []
    for seed in seeds:
        result = check(seed, steps=steps, inject_bug=inject_bug)
        if not result.ok:
            failures.append(result)
    return failures
