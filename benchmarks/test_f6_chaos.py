"""Experiment F6 — chaos: resilience of the bridge under injected faults.

A steady cross-island workload (one Jini→HAVi call per virtual second for
100 s) runs while a standard :class:`FaultPlan` crashes the HAVi gateway,
takes the UDDI directory down past the cache TTL, drops 5% of backbone
frames, wedges the HAVi gateway, and spikes backbone latency.  We measure,
per 10 s phase, the success rate and latency of the workload, and assert
the resilience layer's contract:

- no call ever hangs — failures are bounded by deadline × attempts;
- the caller's circuit breaker opens while the HAVi island is dark and
  closes again after restart via a half-open probe;
- directory reads keep resolving from the VsrClient cache (degraded mode);
- two runs with the same seeds are bit-for-bit identical.
"""

from __future__ import annotations

import statistics

from repro.apps.home import build_smart_home
from repro.core.resilience import CallPolicy
from repro.faults import (
    FaultInjector,
    FaultPlan,
    GatewayPause,
    LatencySpike,
    LinkLoss,
    NodeCrash,
)

from benchmarks.conftest import ms, report

POLICY = CallPolicy(
    deadline=2.0,
    max_retries=1,
    breaker_threshold=3,
    breaker_reset_timeout=8.0,
    directory_deadline=2.0,
    seed=11,
)

CALLS = 100  # one per virtual second
#: Worst case for one failed invoke: 2 attempt-sets (original + stale
#: refresh) x 2 attempts x 2s deadline, plus backoff slack.
FAILURE_LATENCY_BOUND = 2 * 2 * POLICY.deadline + 2.0


def standard_plan(start: float) -> FaultPlan:
    return (
        FaultPlan(seed=11)
        .at(start + 20.0, NodeCrash("gw-havi", restart_after=20.0))
        .at(start + 30.0, NodeCrash("uddi-directory", restart_after=30.0))
        .at(start + 55.0, LinkLoss("backbone", rate=0.05, duration=10.0))
        .at(start + 70.0, GatewayPause("havi", duration=6.0))
        .at(start + 85.0, LatencySpike("backbone", extra_delay=0.05, duration=5.0))
    )


def run_chaos():
    home = build_smart_home(policy=POLICY)
    home.connect()
    sim = home.sim
    start = sim.now
    injector = FaultInjector(home.network, standard_plan(start), mm=home.mm).arm()

    jini = home.island("jini").gateway
    outcomes = []  # (offset, latency, result-type)

    def fire(offset: float) -> None:
        t0 = sim.now

        def record(future) -> None:
            exc = future.exception()
            outcomes.append(
                (offset, sim.now - t0, "ok" if exc is None else type(exc).__name__)
            )

        jini.invoke("Digital_TV_tuner", "get_channel", []).add_done_callback(record)

    for k in range(1, CALLS + 1):
        sim.at(start + k, fire, float(k))
    sim.run(until=start + 130.0)
    executor = jini.resilience
    havi = executor.breakers["havi"]
    counts = {
        "attempts": executor.attempts,
        "successes": executor.successes,
        "failures": executor.failures,
        "timeouts": executor.timeouts,
        "retries": executor.retries,
        "stale_refreshes": jini.stale_refreshes,
        "opens": havi.opens,
        "fast_failures": havi.fast_failures,
        "degraded_reads": jini.vsr.degraded_reads,
    }
    return outcomes, injector.report(), counts


def phase_rows(outcomes):
    rows = []
    for lo in range(0, CALLS, 10):
        bucket = [o for o in outcomes if lo < o[0] <= lo + 10]
        ok = [o for o in bucket if o[2] == "ok"]
        failed = [o for o in bucket if o[2] != "ok"]
        kinds = ",".join(sorted({o[2] for o in failed})) or "-"
        latency = ms(statistics.median(o[1] for o in ok)) if ok else "-"
        rows.append((f"t={lo + 1}..{lo + 10}", len(bucket), len(ok), latency, kinds))
    return rows


def test_f6_chaos_resilience(bench_once):
    outcomes, fault_report, counts = bench_once(run_chaos)

    report(
        "F6: Jini→HAVi workload under the standard fault plan",
        phase_rows(outcomes),
        ("phase", "calls", "ok", "median ok latency", "failure kinds"),
    )
    print()
    print(fault_report.render())
    print(
        f"  resilience: attempts={counts['attempts']} timeouts={counts['timeouts']} "
        f"retries={counts['retries']} stale_refreshes={counts['stale_refreshes']} "
        f"breaker(havi): opens={counts['opens']} fast_failures={counts['fast_failures']} "
        f"degraded_reads={counts['degraded_reads']}"
    )

    assert len(outcomes) == CALLS
    by_offset = {o[0]: o for o in outcomes}

    # Healthy warm-up phase: every call succeeds, quickly.
    for k in range(1, 20):
        assert by_offset[k][2] == "ok", by_offset[k]
        assert by_offset[k][1] < 0.5

    # No call ever hangs: even failures resolve within the policy bound.
    worst = max(o[1] for o in outcomes)
    assert worst < FAILURE_LATENCY_BOUND, worst

    # The dark HAVi island trips the caller's breaker at least once (the
    # crash window, and usually again during the pause), and fast failures
    # prove calls were rejected without touching the network.
    assert counts["opens"] >= 1
    assert counts["fast_failures"] >= 1
    assert counts["timeouts"] >= 1

    # The directory outage outlives the cache TTL, so at least one lookup
    # was served stale (degraded mode is visible in the VSR client counts).
    assert counts["degraded_reads"] >= 1

    # Tail recovery: once the last fault clears, service is back to normal.
    for k in range(95, CALLS + 1):
        assert by_offset[k][2] == "ok", by_offset[k]

    # Overall availability stays useful despite ~36 s of injected trouble.
    success_rate = sum(1 for o in outcomes if o[2] == "ok") / CALLS
    print(f"  availability: {success_rate:.0%}")
    assert success_rate > 0.6


def test_f6_chaos_is_deterministic():
    outcomes1, report1, counts1 = run_chaos()
    outcomes2, report2, counts2 = run_chaos()
    assert outcomes1 == outcomes2
    assert report1.as_dict() == report2.as_dict()
    assert counts1 == counts2
