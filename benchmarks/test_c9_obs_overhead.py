"""Experiment C9 — observability overhead on the C8 bridged-call path.

``repro.obs`` promises to be free when disabled and cheap when enabled.
This experiment re-runs the C8 bridged Telemetry scenario three ways:

- **disabled** (the default ``NOOP_OBS``) — pinned *exactly* to the legacy
  wire numbers C8 established before observability existed.  Latency,
  bytes and frames are virtual-time quantities, so any drift here means
  instrumentation leaked onto the disabled path or the wire.
- **enabled, legacy wire** — full tracing + metrics on.  The only wire
  change allowed is the ``X-Trace`` header on traced requests, so the
  byte/latency overhead must stay within a few percent and the frame
  count must not change at all.
- **enabled, modern wire** — same bound on the C8 modern wire.

Numbers land in ``BENCH_obs.json`` (``$BENCH_OUTPUT_DIR``, default
``benchmarks/out/``) so CI tracks the overhead trajectory alongside
``BENCH_interchange.json``.
"""

from __future__ import annotations

import pytest

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.obs import Observability
from repro.soap.http import REACTOR_INTERCHANGE, InterchangeConfig

from benchmarks.conftest import emit_json, ms, report

TELEMETRY_IFACE = simple_interface("Telemetry", {"snapshot": ("string", "->string")})
REPORT = (
    "temp=21.50C;humidity=40.2%;pressure=1013.2hPa;battery=97%;status=OK;"
) * 10

WARMUP_CALLS = 2
MEASURED_CALLS = 20

#: The C8 legacy numbers from before this subsystem existed.  Virtual
#: quantities are exactly reproducible, so the disabled path is pinned to
#: them byte-for-byte: observability off must cost *nothing* on the wire.
LEGACY_BASELINE = {
    "latency_per_call_s": 0.0017139999999999892,
    "bytes_per_call": 2130.0,
    "frames_per_call": 9.0,
}

#: Enabled overhead bound on the C8 path: the X-Trace header on traced
#: requests is the only extra wire traffic, a few dozen bytes per call.
MAX_ENABLED_OVERHEAD = 0.05


def build_home(interchange: InterchangeConfig | None, observed: bool):
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    obs = Observability(sim) if observed else None
    mm = MetaMiddleware(net, backbone, interchange=interchange, obs=obs)
    island_a = mm.add_island("a", None)
    island_b = mm.add_island("b", None)

    def handler(operation, args):
        return REPORT

    sim.run_until_complete(
        island_a.gateway.export_service("Telemetry", TELEMETRY_IFACE, handler)
    )
    sim.run_until_complete(mm.connect())
    monitor = TrafficMonitor().watch(backbone)
    return sim, mm, island_b, monitor, obs


def measure_bridged(interchange: InterchangeConfig | None, observed: bool):
    """C8's measurement, plus span/metric counts when observability is on."""
    sim, mm, island_b, monitor, obs = build_home(interchange, observed)
    invoke = lambda: sim.run_until_complete(
        island_b.gateway.invoke("Telemetry", "snapshot", ["ch0"])
    )
    for _ in range(WARMUP_CALLS):
        assert invoke() == REPORT
    monitor.reset()
    spans_before = len(obs.tracer.spans) if obs else 0
    t0 = sim.now
    for _ in range(MEASURED_CALLS):
        assert invoke() == REPORT
    result = {
        "latency_per_call_s": (sim.now - t0) / MEASURED_CALLS,
        "bytes_per_call": monitor.total_bytes / MEASURED_CALLS,
        "frames_per_call": monitor.total_frames / MEASURED_CALLS,
    }
    if obs is not None:
        result["spans_per_call"] = (
            len(obs.tracer.spans) - spans_before
        ) / MEASURED_CALLS
        result["metric_keys"] = len(obs.metrics.snapshot())
    return result


def overhead(enabled: dict, disabled: dict, key: str) -> float:
    return enabled[key] / disabled[key] - 1.0


def run_comparison():
    disabled = measure_bridged(None, observed=False)
    enabled = measure_bridged(None, observed=True)
    modern_disabled = measure_bridged(REACTOR_INTERCHANGE, observed=False)
    modern_enabled = measure_bridged(REACTOR_INTERCHANGE, observed=True)
    return {
        "legacy wire, obs off": disabled,
        "legacy wire, obs on": enabled,
        "modern wire, obs off": modern_disabled,
        "modern wire, obs on": modern_enabled,
    }


def test_c9_observability_overhead(bench_once):
    results = bench_once(run_comparison)
    rows = [
        (
            path,
            ms(data["latency_per_call_s"]),
            f"{data['bytes_per_call']:.0f}",
            f"{data['frames_per_call']:.1f}",
            f"{data.get('spans_per_call', 0):.1f}",
        )
        for path, data in results.items()
    ]
    report(
        "C9: bridged Telemetry call, observability off vs on",
        rows,
        ("config", "virtual latency/call", "bytes/call", "frames/call", "spans/call"),
    )

    disabled = results["legacy wire, obs off"]
    enabled = results["legacy wire, obs on"]
    overheads = {
        "latency_overhead": overhead(enabled, disabled, "latency_per_call_s"),
        "bytes_overhead": overhead(enabled, disabled, "bytes_per_call"),
    }
    report(
        "C9: enabled overhead (legacy wire)",
        [(k, f"{v * 100:.2f}%") for k, v in overheads.items()],
        ("metric", "overhead"),
    )
    emit_json("obs", {"paths": results, "overheads": overheads})

    # Disabled == pre-observability wire, exactly.
    assert disabled["bytes_per_call"] == LEGACY_BASELINE["bytes_per_call"]
    assert disabled["frames_per_call"] == LEGACY_BASELINE["frames_per_call"]
    assert disabled["latency_per_call_s"] == pytest.approx(
        LEGACY_BASELINE["latency_per_call_s"], rel=1e-9
    )

    # Enabled: same frame count (no extra round trips), small byte/latency
    # cost from the X-Trace header, and the trace actually recorded.
    assert enabled["frames_per_call"] == disabled["frames_per_call"]
    assert 0.0 <= overheads["bytes_overhead"] <= MAX_ENABLED_OVERHEAD
    assert 0.0 <= overheads["latency_overhead"] <= MAX_ENABLED_OVERHEAD
    assert enabled["spans_per_call"] >= 4

    modern_disabled = results["modern wire, obs off"]
    modern_enabled = results["modern wire, obs on"]
    assert modern_enabled["frames_per_call"] == modern_disabled["frames_per_call"]
    assert overhead(modern_enabled, modern_disabled, "bytes_per_call") <= MAX_ENABLED_OVERHEAD


def test_c9_disabled_obs_is_wire_invisible():
    """Passing no obs and passing nothing are indistinguishable (the
    default NOOP_OBS), and two disabled runs are bit-identical."""
    assert measure_bridged(None, observed=False) == measure_bridged(
        None, observed=False
    )


def test_c9_enabled_runs_deterministic():
    """Tracing itself is deterministic: identical enabled runs produce
    identical measurements (and therefore identical span exports)."""
    assert measure_bridged(None, observed=True) == measure_bridged(
        None, observed=True
    )
