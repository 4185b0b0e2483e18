"""Experiment C12 — telemetry-plane overhead on a busy federation wire.

The ISSUE-8 telemetry plane promises the C9 bargain one level up: free
when disabled, cheap when enabled.  This experiment runs the C9 bridged
Telemetry scenario over the push interchange at a sustained 4 calls/s
for 200 virtual seconds, three ways:

- **baseline** — no telemetry plane at all (observability itself on, as
  in every post-C9 deployment).
- **agents disabled** — ``TelemetryAgent`` objects constructed and
  started on every island with ``enabled=False``.  The wire must be
  *byte-identical* to the baseline: a disabled agent costs nothing.
- **agents enabled** — every island streams delta reports on the
  default 5 s cadence to a ``TelemetryCollector`` mounted on the far
  island.  The report stream must cost **<2 %** extra backbone bytes
  against the baseline's call traffic.

Telemetry cost is per-interval, not per-call, so the bound is stated
against a busy wire (the plane's design point: a federation actually
doing work).  Idle-wire relative overhead is necessarily higher — the
absolute report cost per interval is what ``report_bytes_avg`` tracks.

Numbers land in ``BENCH_telemetry.json`` (``$BENCH_OUTPUT_DIR``, default
``benchmarks/out/``); CI uploads the artifact and gates it with
``benchmarks/gate.py``.
"""

from __future__ import annotations

import random

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.obs import Observability
from repro.obs.telemetry import TelemetryAgent, TelemetryCollector
from repro.soap.http import REACTOR_INTERCHANGE

from benchmarks.conftest import emit_json, report

TELEMETRY_IFACE = simple_interface("Telemetry", {"snapshot": ("string", "->string")})
#: Deterministic, poorly-compressible 4 KiB payload: the terse+compressed
#: push wire would otherwise shrink repetitive call bodies to almost
#: nothing and overstate the relative cost of everything else.
_rng = random.Random("c12")
PAYLOAD = "".join(
    _rng.choice("abcdefghijklmnopqrstuvwxyz0123456789;=") for _ in range(4096)
)

CALLS = 800
CALL_SPACING = 0.25  # 4 calls/s sustained
REPORT_INTERVAL = 5.0  # the testkit band's default cadence
MAX_BYTES_OVERHEAD = 0.02
#: Both islands run an agent, and every one of them must report.
REPORTING_ISLANDS = 2


def measure(mode: str) -> dict:
    """One full scenario run; ``mode`` is baseline/disabled/enabled."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    obs = Observability(sim)
    mm = MetaMiddleware(net, backbone, interchange=REACTOR_INTERCHANGE, obs=obs)
    island_a = mm.add_island("a", None)
    island_b = mm.add_island("b", None)
    sim.run_until_complete(
        island_a.gateway.export_service(
            "Telemetry", TELEMETRY_IFACE, lambda operation, args: PAYLOAD
        )
    )
    sim.run_until_complete(mm.connect())

    agents: list[TelemetryAgent] = []
    collector = None
    if mode != "baseline":
        enabled = mode == "enabled"
        for island in (island_a, island_b):
            agents.append(
                TelemetryAgent(
                    island.gateway, interval=REPORT_INTERVAL, enabled=enabled
                )
            )
        if enabled:
            # Mounted before measurement: the subscription announcement is
            # setup traffic, the steady-state report stream is the cost.
            collector = TelemetryCollector(island_b.gateway)
            sim.run_until_complete(collector.mount())

    monitor = TrafficMonitor().watch(backbone)
    completed = [0]

    def call() -> None:
        future = island_b.gateway.invoke("Telemetry", "snapshot", ["ch0"])

        def check(done) -> None:
            assert done.result() == PAYLOAD
            completed[0] += 1

        future.add_done_callback(check)

    for agent in agents:
        agent.start()
    start = sim.now
    for index in range(CALLS):
        sim.at(start + index * CALL_SPACING, call)
    sim.run(until=start + CALLS * CALL_SPACING + REPORT_INTERVAL)
    for agent in agents:
        agent.stop()
    assert completed[0] == CALLS

    result = {
        "bytes": monitor.total_bytes,
        "frames": monitor.total_frames,
        "bytes_per_call": monitor.total_bytes / CALLS,
    }
    if collector is not None:
        result["reports_merged"] = sum(
            collector.island_max_seq(name) for name in collector.islands()
        )
        result["islands_reporting"] = len(collector.islands())
    return result


def run_comparison() -> dict:
    results = {mode: measure(mode) for mode in ("baseline", "disabled", "enabled")}
    extra_bytes = results["enabled"]["bytes"] - results["baseline"]["bytes"]
    overheads = {
        "bytes_overhead": results["enabled"]["bytes"] / results["baseline"]["bytes"]
        - 1.0,
        "frames_overhead": results["enabled"]["frames"]
        / results["baseline"]["frames"]
        - 1.0,
        # Absolute steady-state cost of one delta report on the wire —
        # the number that survives workload-level changes to this file.
        "report_bytes_avg": extra_bytes / results["enabled"]["reports_merged"],
    }
    return {"paths": results, "overheads": overheads}


def test_c12_telemetry_overhead(bench_once):
    results = bench_once(run_comparison)
    paths, overheads = results["paths"], results["overheads"]
    report(
        "C12: telemetry plane on the busy push wire (800 calls / 200 s)",
        [
            (
                mode,
                f"{data['bytes']}",
                f"{data['frames']}",
                f"{data.get('reports_merged', 0)}",
            )
            for mode, data in paths.items()
        ],
        ("config", "backbone bytes", "frames", "reports merged"),
    )
    report(
        "C12: enabled overhead vs baseline",
        [
            ("bytes", f"{overheads['bytes_overhead'] * 100:.2f}%"),
            ("frames", f"{overheads['frames_overhead'] * 100:.2f}%"),
            ("per report", f"{overheads['report_bytes_avg']:.0f} B"),
        ],
        ("metric", "value"),
    )
    print(f"  -> {emit_json('telemetry', results)}")

    # Disabled agents are wire-invisible: byte-identical to no plane.
    assert paths["disabled"]["bytes"] == paths["baseline"]["bytes"]
    assert paths["disabled"]["frames"] == paths["baseline"]["frames"]

    # Enabled: both islands reported all interval ticks, under the bound.
    assert paths["enabled"]["islands_reporting"] == REPORTING_ISLANDS
    expected_ticks = int(CALLS * CALL_SPACING / REPORT_INTERVAL)
    assert paths["enabled"]["reports_merged"] >= REPORTING_ISLANDS * expected_ticks
    assert 0.0 < overheads["bytes_overhead"] < MAX_BYTES_OVERHEAD


def test_c12_runs_deterministic():
    """Two identical enabled runs agree byte-for-byte on the wire — the
    report stream rides the same deterministic substrate as the calls."""
    assert measure("enabled") == measure("enabled")
