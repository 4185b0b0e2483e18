"""Cold crash→restart recovery: stale-epoch interlocks and the restart
matrix (crash-point × interchange).

A *cold* crash (journal attached) models real process death: volatile
state and sockets die, the WAL survives.  These tests pin the two
hazards that class of fault exposed:

- async continuations issued before the crash (a registry lookup, a poll
  reply) landing *after* it and touching the closed store or resurrecting
  poll loops from the dead epoch; and
- recovery itself — after every crash point, on every interchange, the
  gateway must re-announce to the directory, resume serving, and leave
  exactly one black-box dump behind.
"""

from __future__ import annotations

import pytest

from repro.errors import GatewayError
from repro.faults.plan import NodeCrash
from repro.testkit.bands import BANDS
from repro.testkit.persistence_profile import install_persistence
from repro.testkit.runner import check, replay
from repro.testkit.topology import IslandSpec, TopologySpec, build_world
from repro.testkit.workload import WorkloadGen
from tests.router_views import channels, live_timers, peers, polled


def two_island_spec(seed: int, interchange: str) -> TopologySpec:
    return TopologySpec(
        seed=seed,
        islands=(
            IslandSpec(
                name="alpha",
                kind="jini",
                services=("Svc_alpha_0", "Svc_alpha_1"),
                interchange=interchange,
                poll_interval=1.0,
            ),
            IslandSpec(
                name="beta",
                kind="upnp",
                services=("Svc_beta_0",),
                interchange=interchange,
                poll_interval=1.0,
            ),
        ),
        obs_enabled=True,
        deadline=10.0,
        max_retries=1,
        breaker_threshold=0,
        heartbeat_interval=5.0,
    )


class TestStaleEpochInterlocks:
    """Satellite: continuations from before a cold crash must not touch
    the dead epoch's journal or poll loops."""

    def test_subscribe_in_flight_across_cold_crash_settles_declared(self):
        spec = two_island_spec(seed=9_590, interchange="legacy")
        world = build_world(spec)
        install_persistence(world)
        world.sim.run_until_complete(world.mm.connect())
        gateway = world.mm.islands["alpha"].gateway
        journal = world.journals["alpha"]

        # Issue a subscription, then kill the process while the registry
        # lookup is still on the wire.
        future = gateway.events.subscribe_many(["tk/topic"], lambda event: None)
        assert not future.done()
        gateway.node.crash()
        gateway.on_crash()
        records_at_crash = journal.store.records_appended

        # Restart the node but do NOT recover yet: the store stays closed,
        # exactly the window where a stale success used to append to it.
        world.sim.run(until=world.sim.now + 2.0)
        gateway.node.restart()
        world.sim.run(until=world.sim.now + 30.0)

        assert future.done()
        assert isinstance(future.exception(), GatewayError)
        # Nothing from the dead epoch reached the WAL.
        assert journal.store.records_appended == records_at_crash
        assert polled(gateway.events) == {}
        assert peers(gateway.events) == ({}, {})

    def test_poll_loops_resume_in_the_new_epoch(self):
        spec = two_island_spec(seed=9_591, interchange="legacy")
        world = build_world(spec)
        install_persistence(world)
        world.sim.run_until_complete(world.mm.connect())
        gateway = world.mm.islands["alpha"].gateway

        future = gateway.events.subscribe_many(["tk/topic"], lambda event: None)
        world.sim.run(until=world.sim.now + 5.0)
        assert future.result() == 1  # beta accepted

        generation = gateway.events._delivery_generation
        assert live_timers(gateway.events)  # the poll loop
        gateway.node.crash()
        gateway.on_crash()
        assert peers(gateway.events) == ({}, {})
        assert live_timers(gateway.events) == []
        world.sim.run(until=world.sim.now + 3.0)
        gateway.node.restart()
        gateway.recover()
        assert gateway.events._delivery_generation > generation

        polls_at_recovery = gateway.events.polls_performed
        world.sim.run(until=world.sim.now + 10.0)
        assert gateway.events.polls_performed > polls_at_recovery, (
            "restarted gateway never resumed polling its remote peer"
        )

    def test_cold_crash_drops_every_peer_record_and_router_timer(self):
        """On the modern wire both sides hold timers at the crash: alpha
        parks beta's channel wait (a hold timer) and keeps its own channel
        to beta (or a poll loop while it reopens)."""
        spec = two_island_spec(seed=9_592, interchange="modern")
        world = build_world(spec)
        install_persistence(world)
        world.sim.run_until_complete(world.mm.connect())
        alpha = world.mm.islands["alpha"].gateway
        beta = world.mm.islands["beta"].gateway
        for gateway in (alpha, beta):
            gateway.subscribe_many(["tk/topic"], lambda *event: None)
        world.sim.run(until=world.sim.now + 5.0)
        subscribers, publishers = peers(alpha.events)
        assert set(subscribers) == {"beta"} and subscribers["beta"].waiter
        assert len(channels(alpha.events)) == 1
        assert live_timers(alpha.events)

        alpha.node.crash()
        alpha.on_crash()
        assert peers(alpha.events) == ({}, {})
        assert live_timers(alpha.events) == []

    def test_previously_failing_sweep_seeds_stay_fixed(self):
        """Regression pins: these band seeds crashed on stale-epoch
        continuations (closed-store appends, mispaired pipelined replies
        decoded as poll batches) before the interlocks landed."""
        for seed in (532, 550, 573):
            result = check(seed)
            assert result.ok, result.render_repro()


class TestRestartMatrix:
    """Satellite: crash-point × interchange matrix.  Every cell must
    re-announce to the VSR, recover health, and leave exactly one
    black-box dump for the crash."""

    @pytest.mark.parametrize("interchange", ("legacy", "modern"))
    @pytest.mark.parametrize("crash_fraction", (0.3, 0.7))
    def test_cold_restart_recovers(self, interchange: str, crash_fraction: float):
        # Seed inside the persistence band so replay() attaches journals;
        # distinct per cell so fault RNG streams never collide.
        seed = BANDS["persistence"].seeds[90]
        spec = two_island_spec(seed=seed, interchange=interchange)
        ops = WorkloadGen().generate(spec, 25)
        horizon = max(op.time for op in ops)
        victim = "alpha"
        faults = [
            (
                horizon * crash_fraction,
                NodeCrash(node=f"gw-{victim}", restart_after=4.0),
            )
        ]
        result = replay(spec, ops, faults)
        assert result.error == ""
        assert result.ok, result.render_repro()

        # Exactly one cold crash, recovered.
        metrics = result.world.obs.metrics
        assert metrics.value(f"vsg.{victim}.cold_crashes") == 1
        assert metrics.value(f"vsg.{victim}.recoveries") == 1

        # Exactly one black box for the one crash.
        reasons = [dump["reason"] for dump in result.world.flight[victim].dumps]
        assert reasons.count("node-crash") == 1

        # Re-announced: the directory lists the victim again, and its own
        # journal agrees it holds a live registration.
        directory = result.world.mm.uddi.directory
        assert victim in directory.gateways()
        state = result.world.journals[victim].replay()
        assert state["registered"] is not None
        assert state["registered"][0] == victim

        # Healthy: the node is back up, the gateway serves again.
        gateway = result.world.mm.islands[victim].gateway
        assert gateway.node.alive
        assert not gateway.down
