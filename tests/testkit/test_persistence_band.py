"""The persistence seed band (restart torture), plus liveness proof for
the event-durability and replay-idempotence oracles.

Band seeds attach a WAL journal to every gateway and the directory and
guarantee 1-3 cold crash→restart cycles on gateway nodes; the oracles
then demand that every queued event either reaches its (surviving)
subscriber or was discharged on a declared at-most-once window, and that
WAL replay is a pure fold.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.plan import NodeCrash
from repro.testkit.bands import BANDS
from repro.testkit.oracles import InvariantSuite
from repro.testkit.runner import QUIESCE_MARGIN, check, generate
from repro.testkit.topology import build_world
from repro.testkit.workload import WorkloadRunner

BAND_SEEDS = BANDS["persistence"].seeds
SEED = BAND_SEEDS[2]  # corpus-pinned band seed


@pytest.fixture(scope="module")
def band_result():
    result = check(SEED)
    assert result.ok, result.render_repro()
    return result


class TestBand:
    def test_band_guarantees_restarting_gateway_crashes(self):
        for seed in BAND_SEEDS[:10]:
            _spec, _ops, faults = generate(seed)
            cycles = [
                action
                for _, action in faults
                if isinstance(action, NodeCrash)
                and action.node.startswith("gw-")
                and action.restart_after is not None
            ]
            assert cycles, f"seed {seed} drew no crash→restart cycle"


class TestReplay:
    def test_journals_attached_everywhere(self, band_result):
        world = band_result.world
        assert sorted(world.journals) == sorted(world.spec.island_names)
        assert world.directory_journal is not None

    def test_crashes_were_cold_and_recovered(self, band_result):
        metrics = json.loads(band_result.metrics_json())["metrics"]
        islands = band_result.world.spec.island_names
        cold = sum(metrics[f"vsg.{name}.cold_crashes"] for name in islands)
        assert cold >= 1, "band seed never cold-crashed a gateway"
        owners = [f"vsg.{name}" for name in islands] + ["directory.uddi-directory"]
        for owner in owners:
            assert metrics[f"{owner}.recoveries"] <= metrics[f"{owner}.cold_crashes"]
        for name in [*islands, "uddi-directory"]:
            assert metrics[f"store.{name}.records_appended"] > 0, f"{name} journaled nothing"

    def test_replay_judges_with_both_new_oracles(self, band_result):
        # The run is clean, so the proof the oracles *ran* is structural:
        # obligations were tracked and every journal replays idempotently.
        world = band_result.world
        suite = InvariantSuite(world)
        suite._check_event_durability()
        suite._check_replay_idempotence()
        assert suite.violations == []

    def test_artifacts_ship_the_wal(self, band_result):
        artifacts = band_result.artifacts()
        assert set(artifacts) == {"repro", "flight", "metrics", "wal"}
        assert artifacts["wal"] == band_result.wal_dumps_json()

    def test_identical_seed_identical_artifacts(self):
        first = check(SEED)
        second = check(SEED)
        assert first.metrics_json() == second.metrics_json()
        assert first.wal_dumps_json() == second.wal_dumps_json()
        assert first.flight_dumps_json() == second.flight_dumps_json()


class TestWireInvisibility:
    def _run(self, with_journals: bool):
        spec, ops, _faults = generate(0)  # historical default-band seed
        world = build_world(spec)
        if with_journals:
            from repro.testkit.persistence_profile import install_persistence

            install_persistence(world)
        runner = WorkloadRunner(world)
        world.sim.run_until_complete(world.mm.connect())
        start = world.sim.now
        runner.schedule(ops, start)
        end = start + max(op.time for op in ops) + 1.0
        world.sim.run(until=end)
        world.mm.shutdown()
        world.sim.run(until=end + QUIESCE_MARGIN)
        traffic = {
            protocol: (stats.frames, stats.bytes, stats.dropped_frames)
            for protocol, stats in sorted(world.monitor.stats.items())
        }
        return world, traffic

    def test_journaling_is_wire_invisible(self):
        """Journal appends are node-local: the same scripts produce a
        byte-identical wire with and without WAL journals attached."""
        bare_world, bare_traffic = self._run(with_journals=False)
        wal_world, wal_traffic = self._run(with_journals=True)
        assert wal_traffic == bare_traffic
        # ...and not because nothing was journaled.
        appended = sum(
            journal.store.records_appended
            for journal in wal_world.journals.values()
        )
        assert appended > 0
        assert bare_world.journals == {}


class _FakeJournal:
    """Minimal journal surface for the replay-idempotence walk."""

    class _Store:
        closed = False

    def __init__(self) -> None:
        self.store = self._Store()
        self._flips = 0

    def snapshot_json(self) -> str:
        self._flips += 1
        return f'{{"impure":{self._flips}}}'


class TestOracleLiveness:
    def test_event_durability_fires_on_undelivered_obligation(self):
        result = check(SEED)
        world = result.world
        pub, sub, *_ = sorted(world.journals)
        router = world.mm.islands[pub].gateway.events
        router.retention_obligations[(sub, 999_999)] = {
            "topic": "tk/fake",
            "seq": 999_999,
        }
        suite = InvariantSuite(world)
        suite._check_event_durability()
        assert [v.oracle for v in suite.violations] == ["event-durability"]
        assert pub in suite.violations[0].message
        assert sub in suite.violations[0].message

    def test_event_durability_quiet_on_discharged_obligations(self):
        result = check(SEED)
        world = result.world
        pub, sub, *_ = sorted(world.journals)
        router = world.mm.islands[pub].gateway.events
        # One obligation delivered at the subscriber, one handed over on
        # the poll-reply wire (legal at-most-once loss window).
        router.retention_obligations[(sub, 999_998)] = {"topic": "a", "seq": 999_998}
        world.mm.islands[sub].gateway.events.delivered_keys.add((pub, 999_998))
        router.retention_obligations[(sub, 999_999)] = {"topic": "b", "seq": 999_999}
        router.fetch_discharged.add((sub, 999_999))
        suite = InvariantSuite(world)
        suite._check_event_durability()
        assert suite.violations == []

    def test_event_durability_quiet_when_subscriber_stays_dead(self):
        result = check(SEED)
        world = result.world
        pub, sub, *_ = sorted(world.journals)
        router = world.mm.islands[pub].gateway.events
        router.retention_obligations[(sub, 999_999)] = {"topic": "t", "seq": 999_999}
        world.mm.islands[sub].gateway.node.crash()  # never restarts
        suite = InvariantSuite(world)
        suite._check_event_durability()
        assert suite.violations == []

    def test_replay_idempotence_fires_on_impure_fold(self):
        result = check(SEED)
        world = result.world
        world.journals["zz-fake"] = _FakeJournal()
        suite = InvariantSuite(world)
        suite._check_replay_idempotence()
        assert [v.oracle for v in suite.violations] == ["replay-idempotence"]
        assert "zz-fake" in suite.violations[0].message
