"""Experiment C8 — the modern interchange vs the F2 bridged baseline.

F2 established that a bridged call costs ~13x the latency and ~14x the
bytes of native RMI, almost all of it TCP handshakes (HTTP/1.0 connection
per exchange) plus XML verbosity.  This experiment measures the opt-in
remedy, the modern wire (``REACTOR_INTERCHANGE``):

- keep-alive connection pooling (no handshake per call),
- negotiated terse envelopes (a fraction of the XML bytes),
- negotiated gzip for fat payloads,
- VSR lookup coalescing (already-cached here; the pool is the star).

The claim pinned here is the **speedup**: on the modern wire a bridged
call's virtual latency AND bytes-on-wire both drop by at least 2x versus
the legacy wire.  That the legacy wire is still the 2002 format, frame
for frame, is pinned by the golden wire corpus (``tests/golden``,
scenario ``c8_legacy``).

The per-path numbers are also written to ``BENCH_interchange.json``
(directory from ``$BENCH_OUTPUT_DIR``, default ``benchmarks/out/``) so
CI can track the perf trajectory across PRs.
"""

from __future__ import annotations

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.soap.http import REACTOR_INTERCHANGE, InterchangeConfig

from benchmarks.conftest import emit_json, ms, report

TELEMETRY_IFACE = simple_interface("Telemetry", {"snapshot": ("string", "->string")})

#: A realistic sensor report: structured, repetitive, ~0.6 kB — the kind
#: of payload the 2002 home-network papers ship around.
REPORT = (
    "temp=21.50C;humidity=40.2%;pressure=1013.2hPa;battery=97%;status=OK;"
) * 10

WARMUP_CALLS = 2
MEASURED_CALLS = 20
#: The acceptance bar: the modern wire's reduction in each dimension.
MIN_REDUCTION = 2.0


def build_home(interchange: InterchangeConfig | None):
    """Two SOAP islands on a backbone; island a exports Telemetry."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone, interchange=interchange)
    island_a = mm.add_island("a", None)
    island_b = mm.add_island("b", None)

    def handler(operation, args):
        return REPORT

    sim.run_until_complete(
        island_a.gateway.export_service("Telemetry", TELEMETRY_IFACE, handler)
    )
    sim.run_until_complete(mm.connect())
    monitor = TrafficMonitor().watch(backbone)
    return sim, mm, island_b, monitor


def measure_bridged(interchange: InterchangeConfig | None):
    """Per-call virtual latency and bytes for bridged Telemetry calls."""
    sim, mm, island_b, monitor = build_home(interchange)
    invoke = lambda: sim.run_until_complete(
        island_b.gateway.invoke("Telemetry", "snapshot", ["ch0"])
    )
    # Warm-up: resolves + caches the VSR entry and (modern wire) runs the
    # token negotiation, so the measurement sees steady state.
    for _ in range(WARMUP_CALLS):
        assert invoke() == REPORT
    monitor.reset()
    t0 = sim.now
    for _ in range(MEASURED_CALLS):
        assert invoke() == REPORT
    return {
        "latency_per_call_s": (sim.now - t0) / MEASURED_CALLS,
        "bytes_per_call": monitor.total_bytes / MEASURED_CALLS,
        "frames_per_call": monitor.total_frames / MEASURED_CALLS,
    }


def run_comparison():
    return {
        "legacy": measure_bridged(None),
        "modern": measure_bridged(REACTOR_INTERCHANGE),
    }


def test_c8_fast_path_speedup(bench_once):
    results = bench_once(run_comparison)
    rows = [
        (
            path,
            ms(data["latency_per_call_s"]),
            f"{data['bytes_per_call']:.0f}",
            f"{data['frames_per_call']:.1f}",
        )
        for path, data in results.items()
    ]
    report(
        "C8: bridged Telemetry call, legacy vs modern interchange",
        rows,
        ("config", "virtual latency/call", "bytes/call", "frames/call"),
    )
    legacy, modern = results["legacy"], results["modern"]
    speedup = {
        "latency_reduction": legacy["latency_per_call_s"] / modern["latency_per_call_s"],
        "bytes_reduction": legacy["bytes_per_call"] / modern["bytes_per_call"],
    }
    report(
        "C8: modern-wire reductions",
        [(k, f"{v:.2f}x") for k, v in speedup.items()],
        ("metric", "reduction"),
    )
    emit_json("interchange", {"paths": results, "reductions": speedup})
    # The acceptance bar: both dimensions drop by at least 2x.
    assert speedup["latency_reduction"] >= MIN_REDUCTION
    assert speedup["bytes_reduction"] >= MIN_REDUCTION


def test_c8_fast_path_deterministic():
    """Identical modern-wire runs put identical traffic on the wire."""
    first = measure_bridged(REACTOR_INTERCHANGE)
    second = measure_bridged(REACTOR_INTERCHANGE)
    assert first == second
