"""Fixed seed corpus + opt-in sweep.

The corpus pins 60 seeds forever: every oracle must hold on each of them
on every commit, and each replays the run recorded in
tests/golden/testkit.json.  The sweep (``--testkit-seeds N``) runs N
fresh seeds beyond the corpus plus the first N seeds of every band; CI
runs it nightly with N=200 and uploads a shrunk repro when a seed fails
(see docs/TESTING.md for how to replay one).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.testkit import BANDS, check, shrink_failure, sweep
from tests.golden import metrics_digest, pinned_digests, pinned_metrics, run_digest
from tests.router_views import channels

#: Never reorder or remove entries; append only.  A corpus seed that starts
#: failing is a regression in the system or a newly-tightened oracle.
#: Seeds 100-104 sit in the push band (see repro.testkit.bands):
#: push-capable islands, publish-heavy workloads, streamed event channels.
#: Seeds 200-204 sit in the rules band: deterministic rule engines run
#: over the workload, judged by the rule-dedup and rule-schedule oracles.
#: Seeds 300-304 sit in the reactor band: vectored/pipelined islands with
#: call-heavy workloads, so the coalescing transport core and the legacy
#: wire interoperate under the same fault schedules on every commit.
#: Seeds 400-404 sit in the telemetry band: every island streams delta
#: reports to one collector, judged by the telemetry-soundness oracle
#: (no double-counted redelivery, no fabricated sequence numbers).
#: Seeds 500-504 sit in the persistence band: WAL journals on every
#: gateway and the directory, guaranteed cold crash→restart cycles, and
#: the event-durability + replay-idempotence oracles judging recovery.
#: Seeds 600-604 sit in the scale band: a sharded, replicated directory
#: plane (4-16 shards × 2-3 replicas) under 1k-4k stub registrations,
#: judged by the ring-placement and replica-convergence oracles.
CORPUS = (
    list(range(30))
    + [100, 101, 102, 103, 104]
    + [200, 201, 202, 203, 204]
    + [300, 301, 302, 303, 304]
    + [400, 401, 402, 403, 404]
    + [500, 501, 502, 503, 504]
    + [600, 601, 602, 603, 604]
)

#: Sweep seeds live far above the corpus so the nightly never rechecks
#: what every push already covers.
SWEEP_BASE = 10_000


@pytest.mark.parametrize("seed", CORPUS)
def test_corpus_seed_holds_all_invariants(seed: int) -> None:
    result = check(seed)
    assert result.ok, result.render_repro()
    # ...and replays the exact run recorded in tests/golden/testkit.json.
    assert run_digest(result) == pinned_digests("runs")[seed]
    # ...and its metrics registry reads what tests/golden/metrics.json holds.
    assert metrics_digest(result) == pinned_metrics()[seed]


def test_killed_channels_mid_run_keep_all_oracles() -> None:
    """Killing every live push channel mid-workload must not silently
    drop calls, leak pooled connections or unbalance frame accounting —
    the subscriber falls back to polling and later re-establishes."""
    from repro.errors import TransportError
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.testkit.oracles import InvariantSuite
    from repro.testkit.runner import QUIESCE_MARGIN, generate
    from repro.testkit.topology import build_world
    from repro.testkit.workload import WorkloadRunner

    spec, ops, _faults = generate(101)  # push-band seed, no extra faults
    world = build_world(spec)
    suite = InvariantSuite(world)
    runner = WorkloadRunner(world)
    world.sim.run_until_complete(world.mm.connect())
    start = world.sim.now
    runner.schedule(ops, start)

    killed: list = []

    def kill_live_channels() -> None:
        for island in world.mm.islands.values():
            for channel in list(channels(island.gateway.events).values()):
                channel.kill(TransportError("testkit channel kill"))
                killed.append(channel)

    horizon = max(op.time for op in ops)
    for fraction in (0.4, 0.6, 0.8):
        world.sim.at(start + horizon * fraction, kill_live_channels)

    injector = FaultInjector(world.network, FaultPlan(seed=spec.seed), mm=world.mm).arm()
    end = start + horizon + 1.0
    world.sim.run(until=end)
    world.mm.shutdown()
    world.sim.run(until=end + QUIESCE_MARGIN)

    violations = suite.finish(runner, injector.report())
    assert killed, "no live channels to kill: seed no longer opens any"
    assert violations == [], "\n".join(v.render() for v in violations)


#: ``fresh`` sweeps from SWEEP_BASE (all default-band seeds); every other
#: target sweeps from the start of that band's own range.
SWEEP_TARGETS = ("fresh", *(name for name, band in BANDS.items() if band.seeds))


@pytest.mark.parametrize("target", SWEEP_TARGETS)
def test_sweep(target: str, request: pytest.FixtureRequest) -> None:
    count = request.config.getoption("--testkit-seeds")
    if not count:
        pytest.skip("randomized sweep disabled (pass --testkit-seeds N)")
    if target == "fresh":
        seeds = range(SWEEP_BASE, SWEEP_BASE + count)
    else:
        seeds = BANDS[target].seeds[:count]
    failures = sweep(list(seeds))
    if not failures:
        return
    # Shrink the first failure to a minimal repro and persist it, next to
    # the failing run's black boxes, where CI picks up its artifacts.
    first = failures[0]
    shrunk = shrink_failure(first.seed)
    out_dir = os.environ.get("TESTKIT_OUTPUT_DIR")
    if out_dir:
        path = pathlib.Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        for kind, text in {**first.artifacts(), "repro": shrunk.render()}.items():
            suffix = "txt" if kind == "repro" else "json"
            (path / f"{kind}-seed-{first.seed}.{suffix}").write_text(text)
    pytest.fail(
        f"{len(failures)} of {len(seeds)} {target} seeds failed "
        f"(first: seed={first.seed})\n\n{shrunk.render()}"
    )
