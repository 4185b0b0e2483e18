"""ISSUE-8 acceptance: mid-run island crash under the telemetry band.

A testkit run that crashes one island mid-workload must (a) leave a
deterministic flight-recorder dump for that island, (b) have the
federation collector mark it unhealthy within one heartbeat-failure
window of the crash, and (c) keep the surviving islands' telemetry
flowing past the crash instant.
"""

from __future__ import annotations

import json

from repro.core.resilience import HEARTBEAT_DEADLINE, HEARTBEAT_FAILURE_THRESHOLD
from repro.faults.plan import NodeCrash
from repro.testkit.runner import generate, replay
from repro.testkit.telemetry_profile import generate_telemetry

SEED = 400  # telemetry band: every island streams reports to one collector


def crash_scenario():
    """Scripts for SEED with its drawn faults replaced by one mid-run,
    no-restart crash of an island that is NOT the collector host."""
    spec, ops, _faults = generate(SEED)
    collector_island = generate_telemetry(spec)["collector"]
    victims = [name for name in sorted(spec.island_names) if name != collector_island]
    assert victims, "seed must draw at least two islands"
    victim = victims[0]
    crash_at = max(op.time for op in ops) * 0.5
    faults = [(crash_at, NodeCrash(node=f"gw-{victim}", restart_after=None))]
    return spec, ops, faults, victim, collector_island, crash_at


class TestCrashAcceptance:
    def test_crash_dumps_black_box_and_goes_unhealthy_within_window(self):
        spec, ops, faults, victim, collector_island, crash_at = crash_scenario()
        result = replay(spec, ops, faults)
        assert result.error == ""
        crash_time = result.start_time + crash_at

        # (a) The crashed island's recorder dumped on the crash signal.
        recorder = result.world.flight[victim]
        reasons = [dump["reason"] for dump in recorder.dumps]
        assert "node-crash" in reasons
        crash_dump = recorder.dumps[reasons.index("node-crash")]
        assert crash_dump["dumped_at"] == crash_time
        kinds = {entry["kind"] for entry in crash_dump["records"]}
        assert "fault" in kinds  # the injector's own record made the ring

        # (b) The collector condemned the victim within one
        # heartbeat-failure window: threshold straight misses, each a
        # ping that can take up to the heartbeat deadline to fail.
        collector = result.world.telemetry_collector
        policy = result.world.mm.islands[collector_island].gateway.policy
        window = (
            HEARTBEAT_FAILURE_THRESHOLD * policy.heartbeat_interval
            + HEARTBEAT_DEADLINE
        )
        condemned = [
            t
            for t in collector.transitions
            if t["island"] == victim and t["to"] == "unhealthy"
        ]
        assert condemned, f"victim never went unhealthy: {collector.transitions}"
        assert condemned[0]["time"] <= crash_time + window + 1.0
        assert collector.status(victim) == "unhealthy"

        # (c) Surviving islands kept streaming past the crash instant.
        survivors = [
            name for name in sorted(spec.island_names) if name != victim
        ]
        islands = collector.federation_snapshot()["islands"]
        for name in survivors:
            assert islands[name]["time"] > crash_time, name
        gauge = result.world.obs.metrics.gauge(
            f"telemetry.{collector_island}.health.{victim}"
        )
        assert gauge.value == 2  # unhealthy gauge level

    def test_crash_run_is_byte_deterministic(self):
        spec, ops, faults, victim, _collector_island, _crash_at = crash_scenario()
        first = replay(spec, ops, faults)
        second = replay(spec, ops, faults)
        assert first.flight_dumps_json() == second.flight_dumps_json()
        assert (
            first.world.telemetry_collector.snapshot_json()
            == second.world.telemetry_collector.snapshot_json()
        )
        assert first.metrics_json() == second.metrics_json()
        # The artifact is non-trivial: it holds the victim's dump.
        merged = json.loads(first.flight_dumps_json())
        assert victim in merged
