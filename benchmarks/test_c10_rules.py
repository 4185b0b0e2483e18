"""Experiment C10 — automation rule engine: reaction latency and throughput.

The rules subsystem promises that a declarative trigger→condition→action
rule reacts as fast as the event interchange can carry the trigger.  Two
measurements back that up:

- **trigger→action latency** — a rule on island B listens for ``motion``
  events published on island A and invokes an actuator service back on A.
  Measured from the event's publish instant to the last action settling
  (``Firing.latency``), on the legacy polling wire vs the push wire: the
  push path must react in milliseconds where polling pays the poll
  interval.
- **rules/sec at saturation** — many rules all triggered by one local
  topic, hammered with events; reports wall-clock firings/sec of the
  engine machinery itself (no wire in the loop).

Numbers land in ``BENCH_rules.json`` (``$BENCH_OUTPUT_DIR``, default
``benchmarks/out/``) as a CI artifact alongside the other BENCH_*.json
files.
"""

from __future__ import annotations

import time

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.rules import RuleEngine, dsl
from repro.soap.http import REACTOR_INTERCHANGE

from benchmarks.conftest import emit_json, ms, report

ACTUATOR_IFACE = simple_interface("Actuator", {"pulse": ("->string",)})

POLL_INTERVAL = 2.0
WARMUP_EVENTS = 2
MEASURED_EVENTS = 10
#: Per-event settling window: generous enough for a full poll cycle plus
#: the action's bridged round trip.
EVENT_SPACING = 8.0

SATURATION_RULES = 50
SATURATION_EVENTS = 40


def build_pair(push: bool):
    """Publisher island ``a`` (hosting the actuator) + engine island ``b``."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    interchange = REACTOR_INTERCHANGE if push else None
    mm = MetaMiddleware(net, backbone, interchange=interchange)
    island_a = mm.add_island("a", None, poll_interval=POLL_INTERVAL)
    island_b = mm.add_island("b", None, poll_interval=POLL_INTERVAL)
    pulses: list[float] = []

    def handler(operation, args):
        pulses.append(sim.now)
        return "pulsed"

    sim.run_until_complete(
        island_a.gateway.export_service("Actuator", ACTUATOR_IFACE, handler)
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
    return sim, island_a.gateway, engine, pulses


def measure_reaction(push: bool) -> dict:
    sim, gw_a, engine, pulses = build_pair(push)
    total = WARMUP_EVENTS + MEASURED_EVENTS
    for index in range(total):
        gw_a.publish_event("motion", {"n": index})
        sim.run_for(EVENT_SPACING)
    firings = engine.firings
    assert len(firings) == total, f"{len(firings)} firings for {total} events"
    assert len(pulses) == total
    latencies = [f.latency for f in firings[WARMUP_EVENTS:]]
    assert all(latency is not None for latency in latencies)
    return {
        "latency_mean_s": sum(latencies) / len(latencies),
        "latency_max_s": max(latencies),
        "events": MEASURED_EVENTS,
    }


def measure_saturation() -> dict:
    """Wall-clock engine throughput: local events, no wire in the loop."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone)
    island = mm.add_island("solo", None)

    def handler(operation, args):
        return "ok"

    sim.run_until_complete(
        island.gateway.export_service("Actuator", ACTUATOR_IFACE, handler)
    )
    sim.run_until_complete(mm.connect())
    engine = RuleEngine(island.gateway)
    for index in range(SATURATION_RULES):
        engine.add_rule(
            dsl.rule(f"sat-{index}")
            .when(dsl.on_event("tick"))
            .then(dsl.invoke("Actuator", "pulse"))
            .build()
        )
    sim.run_until_complete(engine.start())
    t0 = time.perf_counter()
    for index in range(SATURATION_EVENTS):
        island.gateway.publish_event("tick", {"n": index})
        sim.run_for(1.0)
    elapsed = time.perf_counter() - t0
    expected = SATURATION_RULES * SATURATION_EVENTS
    assert engine.fired_count == expected
    return {
        "rules": SATURATION_RULES,
        "events": SATURATION_EVENTS,
        "firings": expected,
        "wall_seconds": elapsed,
        "firings_per_wall_second": expected / elapsed,
    }


def run_comparison():
    return {
        "poll": measure_reaction(push=False),
        "push": measure_reaction(push=True),
        "saturation": measure_saturation(),
    }


def test_c10_rule_reaction_latency(bench_once):
    results = bench_once(run_comparison)
    poll, push = results["poll"], results["push"]
    report(
        "C10: trigger->action latency (cross-island motion rule)",
        [
            ("poll (2s interval)", ms(poll["latency_mean_s"]), ms(poll["latency_max_s"])),
            ("push channel", ms(push["latency_mean_s"]), ms(push["latency_max_s"])),
            (
                "speedup",
                f"{poll['latency_mean_s'] / push['latency_mean_s']:.1f}x",
                "",
            ),
        ],
        ("wire", "mean latency", "max latency"),
    )
    saturation = results["saturation"]
    report(
        "C10: engine saturation (local events, no wire)",
        [
            (
                f"{saturation['rules']} rules x {saturation['events']} events",
                f"{saturation['firings']}",
                f"{saturation['firings_per_wall_second']:,.0f}/s",
            )
        ],
        ("load", "firings", "wall-clock throughput"),
    )
    emit_json("rules", results)

    # Legacy fetching reacts in tens of ms (held long-poll waits), push
    # in wire time.  Virtual latencies are deterministic, so the bounds
    # are tight: push must beat the legacy path by an order of magnitude.
    assert push["latency_mean_s"] * 10 < poll["latency_mean_s"]
    assert poll["latency_mean_s"] < POLL_INTERVAL + 1.0
    assert push["latency_max_s"] < 0.5


def test_c10_reaction_measurement_deterministic():
    """Virtual-time latencies are exactly reproducible run to run."""
    assert measure_reaction(push=True) == measure_reaction(push=True)
