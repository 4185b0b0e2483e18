"""Experiment C3 — the paper's negative result: "HTTP is inherently a
client/server protocol, which does not map well to asynchronous
notification scenarios" (Section 4.2).

The event-based multimedia workload (X10 motion events consumed on the
HAVi island) runs over the SOAP/HTTP VSG at several polling intervals and
over the SIP VSG (native push).  Reported per configuration:

- mean notification latency (virtual);
- idle overhead: backbone traffic per minute with *zero* events flowing.

Expected shape: SOAP latency tracks ~interval/2 and can never beat the
poll granularity; its idle overhead *rises* as you chase lower latency
with faster polling.  SIP push latency is flat at network RTT with zero
idle overhead — the trade HTTP cannot offer at any setting.

The sweep also measures the push interchange (streamed event channels
over persistent connections): SOAP keeps its request/response substrate
but escapes the poll-granularity floor, landing at network-RTT latency
with near-zero idle traffic (periodic keepalive waits only).  Numbers
land in ``BENCH_events.json`` (``$BENCH_OUTPUT_DIR``, default
``benchmarks/out/``) so CI can track the latency/overhead envelope per
commit.
"""

from __future__ import annotations

from repro.apps.home import build_smart_home
from repro.apps.multimedia import MultimediaOrchestrator
from repro.core.gateway_sip import SipGatewayProtocol
from repro.net.monitor import TrafficMonitor
from repro.soap.http import REACTOR_INTERCHANGE

from benchmarks.conftest import emit_json, ms, report

POLL_INTERVALS = (0.5, 1.0, 2.0, 5.0, 10.0)
EVENTS = 4
GAP = 30.0  # seconds between motion triggers


def measure(protocol_factory=None, poll_interval=2.0, interchange=None):
    home = build_smart_home(
        poll_interval=poll_interval,
        protocol_factory=protocol_factory,
        interchange=interchange,
    )
    home.connect()
    orchestrator = MultimediaOrchestrator(home)
    home.sim.run_until_complete(orchestrator.arm())

    # Idle overhead: no events for one minute, count backbone bytes.
    idle_monitor = TrafficMonitor().watch(home.network.segment("backbone"))
    home.run(60.0)
    idle_bytes = idle_monitor.total_bytes

    for _ in range(EVENTS):
        home.motion_sensor.trigger()
        home.run(GAP)
    latencies = orchestrator.notification_latencies
    assert len(latencies) == EVENTS
    mean_latency = sum(latencies) / len(latencies)
    return mean_latency, max(latencies), idle_bytes


def run_sweep():
    rows = []
    results = {}
    raw = {}

    def record(label, key, mean_latency, worst, idle):
        results[key] = (mean_latency, idle)
        raw[label] = {
            "mean_latency_s": mean_latency,
            "worst_latency_s": worst,
            "idle_bytes_per_min": idle,
        }
        rows.append((label, ms(mean_latency), ms(worst), idle))

    for interval in POLL_INTERVALS:
        record(f"SOAP poll {interval}s", ("soap", interval),
               *measure(poll_interval=interval))
    record("SOAP push channel", ("push", None),
           *measure(interchange=REACTOR_INTERCHANGE))
    record("SIP push", ("sip", None),
           *measure(protocol_factory=lambda stack: SipGatewayProtocol(stack)))
    return rows, results, raw


def test_c3_async_notification(bench_once):
    rows, results, raw = bench_once(run_sweep)
    report("C3: event notification latency and idle overhead",
           rows, ("gateway", "mean latency", "worst latency", "idle B/min"))
    print(f"  -> {emit_json('events', raw)}")
    sip_latency, sip_idle = results[("sip", None)]
    # SOAP latency scales with the interval and is bounded below by it.
    for interval in POLL_INTERVALS:
        mean_latency, _ = results[("soap", interval)]
        assert mean_latency < interval * 1.2
        assert mean_latency > interval * 0.05
    slow, _ = results[("soap", 10.0)]
    fast, _ = results[("soap", 0.5)]
    assert slow > 4 * fast
    # Chasing latency with polling inflates idle traffic.
    _, idle_fast = results[("soap", 0.5)]
    _, idle_slow = results[("soap", 10.0)]
    assert idle_fast > 5 * idle_slow
    # SIP push: latency at network RTT, no idle polling traffic at all.
    assert sip_latency < 0.01
    assert sip_idle == 0
    assert all(sip_latency < results[("soap", i)][0] for i in POLL_INTERVALS)
    # SOAP push channels escape the poll floor: latency at network RTT —
    # an order of magnitude under the 2 s default poll — and the quiet
    # minute carries only keepalive waits, cheaper than even 10 s polls.
    push_latency, push_idle = results[("push", None)]
    assert push_latency < 0.05
    assert results[("soap", 2.0)][0] > 10 * push_latency
    assert all(push_idle < results[("soap", i)][1] for i in POLL_INTERVALS)
