"""Experiment C11 — reactor-core transport throughput at saturation.

C8 measured per-call cost on an idle wire; this experiment measures
*sustained* throughput under concurrency, which is what the reactor
rewrite buys.  The serving device answers each call after a fixed 5 ms of
in-island work (a realistic device actuation/readout latency), so a
strictly serial connection is latency-bound: no matter how fast the wire,
one pooled connection completes at most ~1/(5 ms + RTT) calls per second.
The reactor substrate pipelines up to ``pipeline_depth`` exchanges over
the same connection (responses flushed in request order by the server's
slot machinery) and coalesces same-instant frames into vectored
transmissions, so the 5 ms service latencies overlap and throughput is
bound by the wire again.

Pinned claims:

1. **calls** — at 64 concurrent closed-loop callers, the reactor config
   (the modern wire at depth 32) sustains at least 3x the bridged
   calls/sec of the modern wire at depth 1 (strictly serial exchanges);
2. **events** — streamed push events at depth 32 are no slower than at
   depth 1 (pipelining the RPC path costs the event path nothing).

In ``BENCH_throughput.json`` the depth-1 rows are keyed
``modern_depth1`` and the depth-32 rows ``reactor``, for calls and
events alike.

Results go to ``BENCH_throughput.json`` (directory from
``$BENCH_OUTPUT_DIR``, default ``benchmarks/out/``); CI uploads it as an
artifact and ``benchmarks/gate.py`` gates merges against the copy
committed at the repo root.
"""

from __future__ import annotations

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import SimFuture, Simulator
from repro.soap.http import REACTOR_INTERCHANGE, InterchangeConfig

from benchmarks.conftest import emit_json, report

TELEMETRY_IFACE = simple_interface("Telemetry", {"snapshot": ("string", "->string")})

REPORT = (
    "temp=21.50C;humidity=40.2%;pressure=1013.2hPa;battery=97%;status=OK;"
) * 10

#: In-island device latency per served call: the handler resolves its
#: future this long after dispatch.  This is what serial connections
#: cannot hide and pipelined ones overlap.
SERVICE_DELAY = 0.005
#: Virtual seconds of sustained closed-loop load per measurement.
MEASURE_WINDOW = 5.0
#: Closed-loop caller counts (the "connection count" axis: the depth-1
#: baseline serialises them all on one pooled connection).
CONCURRENCY = (1, 4, 16, 64)

#: Publish cadence for the event-side measurement: one publish per
#: millisecond saturates the channel without coalescing artifacts.
EVENT_INTERVAL = 0.001

#: The modern wire, strictly serial: one exchange in flight per connection.
SERIAL_INTERCHANGE = InterchangeConfig(modern=True)

#: Acceptance bars: >=3x sustained calls/sec at 64 concurrent exchanges,
#: and the event path does not regress.
MIN_SPEEDUP_AT_64 = 3.0
MIN_EVENT_RATIO = 0.9


def build_home(interchange: InterchangeConfig | None):
    """Two SOAP islands on a backbone; island a exports Telemetry whose
    handler answers after SERVICE_DELAY of virtual device work."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone, interchange=interchange)
    island_a = mm.add_island("a", None)
    island_b = mm.add_island("b", None)

    def handler(operation, args):
        future: SimFuture = SimFuture()
        sim.schedule(SERVICE_DELAY, future.set_result, REPORT)
        return future

    sim.run_until_complete(
        island_a.gateway.export_service("Telemetry", TELEMETRY_IFACE, handler)
    )
    sim.run_until_complete(mm.connect())
    monitor = TrafficMonitor().watch(backbone)
    return sim, mm, island_a, island_b, monitor


def measure_calls(interchange: InterchangeConfig | None, concurrency: int) -> dict:
    """Sustained bridged calls/sec: ``concurrency`` closed-loop callers,
    each re-invoking the moment its previous call completes."""
    sim, mm, _island_a, island_b, monitor = build_home(interchange)
    invoke = lambda: island_b.gateway.invoke("Telemetry", "snapshot", ["ch0"])
    # Warm-up: VSR cache, capability negotiation, keep-alive proof (the
    # first exchange on a fresh connection is always one-in-flight).
    for _ in range(2):
        assert sim.run_until_complete(invoke()) == REPORT
    monitor.reset()
    t0 = sim.now
    deadline = t0 + MEASURE_WINDOW
    stats = {"completed": 0, "failed": 0}

    def loop(done: SimFuture) -> None:
        if done.exception() is not None:
            stats["failed"] += 1
            return
        if sim.now < deadline:
            stats["completed"] += 1
            invoke().add_done_callback(loop)

    for _ in range(concurrency):
        invoke().add_done_callback(loop)
    sim.run(until=deadline)
    elapsed = sim.now - t0
    calls_per_sec = stats["completed"] / elapsed
    result = {
        "calls_per_sec": round(calls_per_sec, 2),
        "completed": stats["completed"],
        "failed": stats["failed"],
        "bytes_per_call": round(monitor.total_bytes / max(1, stats["completed"]), 1),
    }
    # Drain in-flight work so teardown is clean (and nothing wedges).
    mm.shutdown()
    sim.run()
    return result


def measure_events(interchange: InterchangeConfig) -> dict:
    """Sustained streamed events/sec: island b subscribes, island a
    publishes one event per EVENT_INTERVAL for the whole window."""
    sim, mm, island_a, island_b, _monitor = build_home(interchange)
    received = {"count": 0}

    def on_event(topic: str, payload, source: str) -> None:
        received["count"] += 1

    sim.run_until_complete(island_b.gateway.subscribe_many(["telemetry"], on_event))
    sim.run_for(1.0)  # let the push channel establish and settle
    publishes = int(MEASURE_WINDOW / EVENT_INTERVAL)
    t0 = sim.now
    for index in range(publishes):
        sim.at(
            t0 + index * EVENT_INTERVAL,
            island_a.gateway.publish_event,
            "telemetry",
            index,
        )
    sim.run(until=t0 + MEASURE_WINDOW + 1.0)  # +1s: let the tail deliver
    events_per_sec = received["count"] / MEASURE_WINDOW
    mm.shutdown()
    sim.run()
    return {
        "events_per_sec": round(events_per_sec, 2),
        "published": publishes,
        "received": received["count"],
    }


def run_throughput() -> dict:
    calls = {}
    for concurrency in CONCURRENCY:
        calls[str(concurrency)] = {
            "modern_depth1": measure_calls(SERIAL_INTERCHANGE, concurrency),
            "reactor": measure_calls(REACTOR_INTERCHANGE, concurrency),
        }
    events = {
        "modern_depth1": measure_events(SERIAL_INTERCHANGE),
        "reactor": measure_events(REACTOR_INTERCHANGE),
    }
    return {"calls": calls, "events": events}


def test_c11_reactor_throughput(bench_once):
    results = bench_once(run_throughput)
    rows = []
    for concurrency, data in results["calls"].items():
        serial, reactor = data["modern_depth1"], data["reactor"]
        speedup = reactor["calls_per_sec"] / serial["calls_per_sec"]
        rows.append(
            (
                concurrency,
                f"{serial['calls_per_sec']:.0f}",
                f"{reactor['calls_per_sec']:.0f}",
                f"{speedup:.2f}x",
            )
        )
    report(
        "C11: sustained bridged calls/sec vs concurrent callers",
        rows,
        ("concurrency", "modern (depth 1)", "reactor", "speedup"),
    )
    report(
        "C11: streamed events/sec at saturation",
        [
            (path, f"{data['events_per_sec']:.0f}", data["received"])
            for path, data in results["events"].items()
        ],
        ("path", "events/sec", "received"),
    )
    at64 = results["calls"]["64"]
    speedup_64 = (
        at64["reactor"]["calls_per_sec"] / at64["modern_depth1"]["calls_per_sec"]
    )
    event_ratio = (
        results["events"]["reactor"]["events_per_sec"]
        / results["events"]["modern_depth1"]["events_per_sec"]
    )
    emit_json(
        "throughput",
        {
            "calls": results["calls"],
            "events": results["events"],
            "speedup_at_64": round(speedup_64, 2),
            "event_ratio_vs_depth1": round(event_ratio, 3),
        }
    )
    assert speedup_64 >= MIN_SPEEDUP_AT_64
    assert event_ratio >= MIN_EVENT_RATIO
    # Nothing silently failed its way to a fast number.
    for data in results["calls"].values():
        assert data["modern_depth1"]["failed"] == 0
        assert data["reactor"]["failed"] == 0


def test_c11_throughput_deterministic():
    """Identical reactor runs sustain identical throughput (the reactor's
    cycles and vectored flushes are fully deterministic)."""
    first = measure_calls(REACTOR_INTERCHANGE, 16)
    second = measure_calls(REACTOR_INTERCHANGE, 16)
    assert first == second
