"""Canonical experiment scenarios whose backbone wire the corpus pins.

Each scenario builds the home an experiment measures, runs a short slice
of that experiment's workload with a :class:`TrafficMonitor` tracing the
segments it reports on, and returns the trace.  Legacy scenarios run on
:data:`LEGACY_INTERCHANGE` (the 2002 wire); modern ones on
:data:`REACTOR_INTERCHANGE`.  Long traces are pinned as a per-segment
digest instead of the full ``TraceEntry`` list (see ``DIGESTED``).

Record a scenario into its golden file with::

    PYTHONPATH=src:. python -m tests.golden.scenarios <name> [<name> ...]

List the frames a scenario moved against its golden file, and the
per-segment frame and byte totals before and after, without writing
anything::

    PYTHONPATH=src:. python -m tests.golden.scenarios --diff [<name> ...]

(``--diff`` with no names diffs every scenario.)

A golden file changes only together with docs naming the frames that
moved and why; never re-record to make a failing pin pass.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Callable

from repro.apps.home import build_smart_home
from repro.apps.multimedia import MultimediaOrchestrator
from repro.core.framework import MetaMiddleware
from repro.core.gateway_sip import SipGatewayProtocol
from repro.core.interface import simple_interface
from repro.jini.service import JiniClient, JiniHost
from repro.net.monitor import TraceEntry, TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import SimFuture, Simulator
from repro.rules import RuleEngine, dsl
from repro.soap.http import LEGACY_INTERCHANGE, REACTOR_INTERCHANGE
from tests.golden import digest, record, wire_digest, wire_trace

TELEMETRY_IFACE = simple_interface("Telemetry", {"snapshot": ("string", "->string")})
ACTUATOR_IFACE = simple_interface("Actuator", {"pulse": ("->string",)})
#: The C8/C11 sensor report (~0.6 kB of repetitive text).
REPORT = "temp=21.50C;humidity=40.2%;pressure=1013.2hPa;battery=97%;status=OK;" * 10


def _tracer(home_network, *segments: str) -> TrafficMonitor:
    return TrafficMonitor(trace_enabled=True).watch(
        *(home_network.segment(name) for name in segments)
    )


def f2_proxy_path() -> list[TraceEntry]:
    """F2: one bridged call, HAVi island -> Jini Laserdisc."""
    home = build_smart_home(interchange=LEGACY_INTERCHANGE)
    home.connect()
    monitor = _tracer(home.network, "jini-eth", "backbone", "havi-1394")
    home.invoke_from("havi", "Laserdisc", "get_chapter")
    return monitor.trace


def f4_jini_x10() -> list[TraceEntry]:
    """F4: a plain Jini client turns on the bridged X10 hall lamp."""
    home = build_smart_home(interchange=LEGACY_INTERCHANGE)
    home.connect()
    sim = home.sim
    client = JiniClient(JiniHost(home.network, "f4-client", home.network.segment("jini-eth")))
    lookup_ref = sim.run_until_complete(client.discover_lookup())
    proxy = sim.run_until_complete(client.lookup_one(lookup_ref, "vsg.X10_A1_hall_lamp"))
    monitor = _tracer(home.network, "jini-eth", "backbone", "serial0", "powerline")
    sim.run_until_complete(proxy.turn_on())
    assert home.lamps["hall"].on
    return monitor.trace


def _c3_event(interchange) -> list[TraceEntry]:
    """C3: one X10 motion event consumed on the HAVi island."""
    home = build_smart_home(interchange=interchange)
    home.connect()
    orchestrator = MultimediaOrchestrator(home)
    home.sim.run_until_complete(orchestrator.arm())
    monitor = _tracer(home.network, "backbone")
    home.motion_sensor.trigger()
    home.run(30.0)
    assert len(orchestrator.notification_latencies) == 1
    return monitor.trace


def _c8_bridged(interchange) -> list[TraceEntry]:
    """C8: five bridged Telemetry calls between two SOAP islands."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone, interchange=interchange)
    island_a = mm.add_island("a", None)
    island_b = mm.add_island("b", None)
    sim.run_until_complete(
        island_a.gateway.export_service(
            "Telemetry", TELEMETRY_IFACE, lambda operation, args: REPORT
        )
    )
    sim.run_until_complete(mm.connect())
    monitor = TrafficMonitor(trace_enabled=True).watch(backbone)
    for _ in range(5):
        assert sim.run_until_complete(
            island_b.gateway.invoke("Telemetry", "snapshot", ["x"])
        ) == REPORT
    return monitor.trace


def _a2_workload(protocol_factory) -> list[TraceEntry]:
    """A2: an RPC burst and one event on the HAVi island, per binding."""
    home = build_smart_home(
        interchange=LEGACY_INTERCHANGE, protocol_factory=protocol_factory
    )
    home.connect()
    sim = home.sim
    monitor = _tracer(home.network, "backbone")
    for _ in range(3):
        home.invoke_from("havi", "Refrigerator", "get_temperature")
    received: list[float] = []
    sim.run_until_complete(
        home.islands["havi"].gateway.subscribe(
            "x10.ON", lambda topic, payload, source: received.append(sim.now)
        )
    )
    home.motion_sensor.trigger()
    home.run(40.0)
    assert len(received) == 1
    return monitor.trace


def c10_push_rule() -> list[TraceEntry]:
    """C10: a rule on island b reacts to island a's event by calling a's
    actuator, on the push wire."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone, interchange=REACTOR_INTERCHANGE)
    island_a = mm.add_island("a", None, poll_interval=2.0)
    island_b = mm.add_island("b", None, poll_interval=2.0)
    sim.run_until_complete(
        island_a.gateway.export_service(
            "Actuator", ACTUATOR_IFACE, lambda operation, args: "pulsed"
        )
    )
    sim.run_until_complete(mm.connect())
    engine = RuleEngine(island_b.gateway)
    engine.add_rule(
        dsl.rule("motion-pulse")
        .when(dsl.on_event("motion"))
        .then(dsl.invoke("Actuator", "pulse"))
        .build()
    )
    sim.run_until_complete(engine.start())
    monitor = TrafficMonitor(trace_enabled=True).watch(backbone)
    for index in range(2):
        island_a.gateway.publish_event("motion", {"n": index})
        sim.run_for(8.0)
    assert len(engine.firings) == 2
    return monitor.trace


def c11_64_callers() -> list[TraceEntry]:
    """C11: 64 closed-loop callers for 0.5 s against a 5 ms device."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone, interchange=REACTOR_INTERCHANGE)
    island_a = mm.add_island("a", None)
    island_b = mm.add_island("b", None)

    def handler(operation, args):
        future: SimFuture = SimFuture()
        sim.schedule(0.005, future.set_result, REPORT)
        return future

    sim.run_until_complete(
        island_a.gateway.export_service("Telemetry", TELEMETRY_IFACE, handler)
    )
    sim.run_until_complete(mm.connect())
    invoke = lambda: island_b.gateway.invoke("Telemetry", "snapshot", ["ch0"])
    for _ in range(2):
        assert sim.run_until_complete(invoke()) == REPORT
    monitor = TrafficMonitor(trace_enabled=True, trace_limit=10**6).watch(backbone)
    deadline = sim.now + 0.5

    def loop(done: SimFuture) -> None:
        assert done.exception() is None
        if sim.now < deadline:
            invoke().add_done_callback(loop)

    for _ in range(64):
        invoke().add_done_callback(loop)
    sim.run(until=deadline)
    mm.shutdown()
    sim.run()
    return monitor.trace


#: name -> (wire, scenario).  The wire names the golden file it lives in.
SCENARIOS: dict[str, tuple[str, Callable[[], list[TraceEntry]]]] = {
    "f2_proxy_path": ("legacy", f2_proxy_path),
    "f4_jini_x10": ("legacy", f4_jini_x10),
    "c3_poll_event": ("legacy", lambda: _c3_event(LEGACY_INTERCHANGE)),
    "c8_legacy": ("legacy", lambda: _c8_bridged(LEGACY_INTERCHANGE)),
    "a2_soap": ("legacy", lambda: _a2_workload(None)),
    "a2_sip": ("legacy", lambda: _a2_workload(SipGatewayProtocol)),
    "c3_push_event": ("modern", lambda: _c3_event(REACTOR_INTERCHANGE)),
    "c8_modern": ("modern", lambda: _c8_bridged(REACTOR_INTERCHANGE)),
    "c10_push_rule": ("modern", c10_push_rule),
    "c11_64_callers": ("modern", c11_64_callers),
}
#: Scenarios pinned as a per-segment digest rather than frame by frame.
DIGESTED = frozenset({"c11_64_callers"})


def diff_traces(before: list[TraceEntry], after: list[TraceEntry]) -> list[str]:
    """One line per frame whose size or time moved (or that appeared or
    vanished), then each segment's frames/bytes before -> after; empty
    when the traces are equal."""
    lines = []
    for index in range(max(len(before), len(after))):
        old = before[index] if index < len(before) else None
        new = after[index] if index < len(after) else None
        if old is None:
            lines.append(f"frame {index}: new, {new.size} B at {new.time!r}")
        elif new is None:
            lines.append(f"frame {index}: gone, was {old.size} B at {old.time!r}")
        elif old != new:
            moved = [
                f"{field.name} {getattr(old, field.name)!r} -> {getattr(new, field.name)!r}"
                for field in dataclasses.fields(old)
                if getattr(old, field.name) != getattr(new, field.name)
            ]
            lines.append(f"frame {index}: " + ", ".join(moved))
    if lines:
        lines += _total_lines(digest(before), digest(after))
    return lines


def _total_lines(before: dict[str, dict], after: dict[str, dict]) -> list[str]:
    """Each segment's frames/bytes before -> after, from two digests."""
    empty = {"frames": 0, "bytes": 0}

    def totals(row: dict) -> str:
        return f"{row['frames']} frames, {row['bytes']:,} B"

    return [
        f"{segment}: {totals(before.get(segment, empty))}"
        f" -> {totals(after.get(segment, empty))}"
        for segment in sorted(before.keys() | after.keys())
    ]


def diff(name: str) -> list[str]:
    """What ``name``'s wire moved against its golden file (empty when
    nothing did).  A digested scenario can only name its segments."""
    trace = SCENARIOS[name][1]()
    if name not in DIGESTED:
        return diff_traces(wire_trace(name), trace)
    before, after = wire_digest(name), digest(trace)
    return [] if before == after else _total_lines(before, after)


def main(args: list[str]) -> None:
    diffing = args[:1] == ["--diff"]
    names = args[1:] if diffing else args
    if diffing and not names:
        names = list(SCENARIOS)
    if not names or any(name not in SCENARIOS for name in names):
        sys.exit(
            f"usage: scenarios.py <name>... | --diff [<name>...]; one of {sorted(SCENARIOS)}"
        )
    for name in names:
        wire, scenario = SCENARIOS[name]
        if diffing:
            lines = diff(name)
            print(f"{name}: {'moved' if lines else 'unchanged'}")
            for line in lines:
                print(f"  {line}")
        else:
            record(wire, name, scenario(), digested=name in DIGESTED)
            print(f"recorded {name} into the {wire} corpus")


if __name__ == "__main__":
    main(sys.argv[1:])
