"""Tests for the resilience layer: CallPolicy, circuit breaker, deadlines,
retries, heartbeats, VSR degraded reads, and gateway pause — at unit level
and end-to-end through MetaMiddleware."""

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DirectoryUnavailableError,
    RemoteServiceError,
    TransportError,
)
from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.core.resilience import (
    CallPolicy,
    CircuitBreaker,
    ResilientExecutor,
)
from repro.net.segment import EthernetSegment
from repro.obs import Observability
from repro.net.simkernel import SimFuture

from tests.core.toys import Lamp, Thermometer, ToyPcm

LAMP_IFACE = simple_interface(
    "Lamp", {"set_level": ("int", "->int"), "get_level": ("->int",), "fail": ()}
)
THERMO_IFACE = simple_interface("Thermo", {"read": ("->double",)})

#: Aggressive policy so the failure paths run in a few virtual seconds.
CHAOS_POLICY = CallPolicy(
    deadline=2.0,
    max_retries=0,
    breaker_threshold=2,
    breaker_reset_timeout=5.0,
    directory_deadline=2.0,
    seed=7,
)


# ---------------------------------------------------------------------------
# Unit level
# ---------------------------------------------------------------------------


class TestWithDeadline:
    def test_resolves_in_time(self, sim):
        inner = SimFuture()
        guarded = inner.within(sim, 5.0, lambda: DeadlineExceededError("late"))
        sim.schedule(1.0, inner.set_result, "ok")
        assert sim.run_until_complete(guarded) == "ok"

    def test_times_out(self, sim):
        guarded = SimFuture().within(sim, 5.0, lambda: DeadlineExceededError("late"))
        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(guarded)
        assert sim.now == 5.0

    def test_late_resolution_ignored(self, sim):
        inner = SimFuture()
        guarded = inner.within(sim, 1.0, lambda: DeadlineExceededError("late"))
        sim.schedule(2.0, inner.set_result, "too late")
        sim.run()
        with pytest.raises(DeadlineExceededError):
            guarded.result()

    def test_zero_deadline_disables(self, sim):
        inner = SimFuture()
        assert inner.within(sim, 0.0, lambda: AssertionError) is inner


class TestCircuitBreaker:
    def make(self, sim, threshold=3, reset=10.0, probes=1):
        policy = CallPolicy(
            breaker_threshold=threshold,
            breaker_reset_timeout=reset,
            breaker_half_open_probes=probes,
        )
        return CircuitBreaker(sim, policy, "island")

    def test_opens_at_threshold(self, sim):
        breaker = self.make(sim, threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_count(self, sim):
        breaker = self.make(sim, threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_fails_fast_until_reset_timeout(self, sim):
        breaker = self.make(sim, threshold=1, reset=10.0)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.admit()
        assert excinfo.value.island == "island"
        assert breaker.fast_failures == 1

    def test_half_open_probe_then_close(self, sim):
        breaker = self.make(sim, threshold=1, reset=10.0)
        breaker.record_failure()
        sim.run(until=10.0)
        breaker.admit()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failed_probe_reopens(self, sim):
        breaker = self.make(sim, threshold=1, reset=10.0)
        breaker.record_failure()
        sim.run(until=10.0)
        breaker.admit()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2

    def test_half_open_limits_concurrent_probes(self, sim):
        breaker = self.make(sim, threshold=1, reset=10.0, probes=1)
        breaker.record_failure()
        sim.run(until=10.0)
        breaker.admit()
        with pytest.raises(CircuitOpenError):
            breaker.admit()

    def test_disabled_breaker_never_opens(self, sim):
        breaker = self.make(sim, threshold=0)
        for _ in range(50):
            breaker.record_failure()
        breaker.admit()
        assert breaker.state == CircuitBreaker.CLOSED


class TestResilientExecutor:
    def test_deadline_bounds_a_hanging_attempt(self, sim):
        executor = ResilientExecutor(sim, CallPolicy(deadline=3.0))
        result = executor.execute("a", SimFuture)  # a future nobody resolves
        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(result)
        assert sim.now == 3.0
        assert executor.timeouts == 1

    def test_retries_until_success(self, sim):
        executor = ResilientExecutor(
            sim, CallPolicy(deadline=0.0, max_retries=3, backoff_base=0.5)
        )
        calls = []

        def attempt():
            calls.append(sim.now)
            if len(calls) < 3:
                return SimFuture.failed(TransportError("flaky"))
            return SimFuture.completed("finally")

        assert sim.run_until_complete(executor.execute("a", attempt)) == "finally"
        assert len(calls) == 3
        assert executor.retries == 2
        assert executor.successes == 1
        # Exponential backoff: second gap about twice the first.
        gap1, gap2 = calls[1] - calls[0], calls[2] - calls[1]
        assert gap2 > gap1 > 0

    def test_backoff_is_deterministic_across_executors(self, sim):
        policy = CallPolicy(backoff_jitter=0.5, seed=99)
        delays_a = [ResilientExecutor(sim, policy).backoff_delay(i) for i in range(4)]
        delays_b = [ResilientExecutor(sim, policy).backoff_delay(i) for i in range(4)]
        assert delays_a == delays_b

    def test_remote_fault_not_retried_and_resets_breaker(self, sim):
        executor = ResilientExecutor(
            sim, CallPolicy(max_retries=5, breaker_threshold=2)
        )
        breaker = executor.breaker_for("a")
        breaker.record_failure()  # one connectivity strike already

        def attempt():
            return SimFuture.failed(RemoteServiceError("Boom", "app error", "a"))

        with pytest.raises(RemoteServiceError):
            sim.run_until_complete(executor.execute("a", attempt))
        assert executor.retries == 0
        # The island answered, so the strike count was wiped.
        assert breaker._consecutive_failures == 0

    def test_breaker_opens_then_fails_fast(self, sim):
        executor = ResilientExecutor(
            sim, CallPolicy(breaker_threshold=2, breaker_reset_timeout=10.0)
        )

        def attempt():
            return SimFuture.failed(TransportError("down"))

        for _ in range(2):
            with pytest.raises(TransportError):
                sim.run_until_complete(executor.execute("a", attempt))
        with pytest.raises(CircuitOpenError):
            sim.run_until_complete(executor.execute("a", attempt))
        assert executor.breakers["a"].state == CircuitBreaker.OPEN
        assert executor.breakers["a"].fast_failures == 1

    def test_breakers_are_per_island(self, sim):
        executor = ResilientExecutor(sim, CallPolicy(breaker_threshold=1))
        with pytest.raises(TransportError):
            sim.run_until_complete(
                executor.execute("a", lambda: SimFuture.failed(TransportError("x")))
            )
        assert sim.run_until_complete(
            executor.execute("b", lambda: SimFuture.completed(1))
        ) == 1
        assert executor.breakers["a"].state == CircuitBreaker.OPEN
        assert executor.breakers["b"].state == CircuitBreaker.CLOSED


# ---------------------------------------------------------------------------
# End-to-end through MetaMiddleware
# ---------------------------------------------------------------------------


@pytest.fixture
def framework(sim, net):
    backbone = net.create_segment(EthernetSegment, "backbone")
    return MetaMiddleware(net, backbone, policy=CHAOS_POLICY)


def add_toy_island(mm, name, services, **kwargs):
    return mm.add_island(
        name, None, lambda island: ToyPcm(island.gateway, services), **kwargs
    )


@pytest.fixture
def two_islands(sim, framework):
    lamp = Lamp()
    island_a = add_toy_island(framework, "a", {"Lamp": (LAMP_IFACE, lamp)})
    island_b = add_toy_island(framework, "b", {"Thermo": (THERMO_IFACE, Thermometer())})
    sim.run_until_complete(framework.connect())
    return framework, island_a, island_b, lamp


class TestCrashedIslandCalls:
    def test_call_to_crashed_island_times_out_not_hangs(self, sim, two_islands):
        framework, island_a, island_b, lamp = two_islands
        island_a.node.crash()
        t0 = sim.now
        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
        # Two attempt sets (original + stale-refresh), one 2 s deadline each.
        assert sim.now - t0 <= 2 * CHAOS_POLICY.deadline + 0.5

    def test_breaker_opens_then_half_open_probe_recovers(self, sim, two_islands):
        framework, island_a, island_b, lamp = two_islands
        island_a.node.crash()
        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
        breaker = island_b.gateway.resilience.breaker_for("a")
        assert breaker.state == CircuitBreaker.OPEN
        # While open: fast failure, no network activity.
        t0 = sim.now
        with pytest.raises(CircuitOpenError):
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
        assert sim.now == t0
        # Restart the node, wait out the reset timeout: the half-open probe
        # succeeds and service resumes.
        island_a.node.restart()
        sim.run_for(CHAOS_POLICY.breaker_reset_timeout)
        value = sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
        assert value == 0
        assert breaker.state == CircuitBreaker.CLOSED
        assert island_b.gateway.resilience.timeouts >= 2
        assert breaker.opens >= 1

    def test_identical_runs_produce_identical_counters(self, sim):
        def run_once():
            from repro.net.network import Network
            from repro.net.simkernel import Simulator

            local_sim = Simulator()
            local_net = Network(local_sim)
            backbone = local_net.create_segment(EthernetSegment, "backbone")
            obs = Observability(local_sim)
            mm = MetaMiddleware(local_net, backbone, policy=CHAOS_POLICY, obs=obs)
            lamp = Lamp()
            island_a = add_toy_island(mm, "a", {"Lamp": (LAMP_IFACE, lamp)})
            island_b = add_toy_island(
                mm, "b", {"Thermo": (THERMO_IFACE, Thermometer())}
            )
            local_sim.run_until_complete(mm.connect())
            island_a.node.crash()
            for _ in range(3):
                future = island_b.gateway.invoke("Lamp", "get_level", [])
                try:
                    local_sim.run_until_complete(future)
                except Exception:
                    pass
            island_a.node.restart()
            local_sim.run_for(CHAOS_POLICY.breaker_reset_timeout)
            local_sim.run_until_complete(
                island_b.gateway.invoke("Lamp", "get_level", [])
            )
            return obs.metrics.snapshot()

        assert run_once() == run_once()


class TestPausedGateway:
    def test_paused_gateway_call_hits_deadline_then_resume_recovers(
        self, sim, two_islands
    ):
        framework, island_a, island_b, lamp = two_islands
        island_a.gateway.pause()
        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
        island_a.gateway.resume()
        sim.run_for(CHAOS_POLICY.breaker_reset_timeout)
        assert (
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
            == 0
        )

    def test_parked_calls_execute_on_resume(self, sim, two_islands):
        framework, island_a, island_b, lamp = two_islands
        island_a.gateway.pause()
        future = island_b.gateway.invoke("Lamp", "set_level", [7])
        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(future)
        assert lamp.level == 0  # parked, never executed
        island_a.gateway.resume()
        sim.run_for(1.0)
        # The parked call (and its stale-refresh twin) ran on resume.
        assert lamp.level == 7


class TestVsrDegradedMode:
    def test_lookups_survive_directory_outage_from_cache(self, sim, two_islands):
        framework, island_a, island_b, lamp = two_islands
        gateway = island_b.gateway
        # Prime the read cache, then lose the directory and outlive the TTL.
        assert sim.run_until_complete(gateway.invoke("Lamp", "get_level", [])) == 0
        framework.directory_node.crash()
        sim.run_for(gateway.vsr.cache_ttl + 1.0)
        assert sim.run_until_complete(gateway.invoke("Lamp", "get_level", [])) == 0
        assert gateway.vsr.degraded_reads >= 1
        assert gateway.vsr.lookup_failures >= 1

    def test_uncached_lookup_fails_cleanly_when_directory_down(
        self, sim, two_islands
    ):
        framework, island_a, island_b, lamp = two_islands
        framework.directory_node.crash()
        with pytest.raises(DirectoryUnavailableError):
            sim.run_until_complete(
                island_b.gateway.invoke("NeverSeen", "noop", [])
            )

    def test_directory_restart_ends_degraded_mode(self, sim, two_islands):
        framework, island_a, island_b, lamp = two_islands
        gateway = island_b.gateway
        assert sim.run_until_complete(gateway.invoke("Lamp", "get_level", [])) == 0
        framework.directory_node.crash()
        sim.run_for(gateway.vsr.cache_ttl + 1.0)
        sim.run_until_complete(gateway.invoke("Lamp", "get_level", []))
        degraded_before = gateway.vsr.degraded_reads
        framework.directory_node.restart()
        sim.run_for(1.0)
        assert sim.run_until_complete(gateway.invoke("Lamp", "get_level", [])) == 0
        assert gateway.vsr.degraded_reads == degraded_before


class TestHeartbeat:
    def test_health_tracks_crash_and_restart(self, sim, net):
        backbone = net.create_segment(EthernetSegment, "backbone")
        policy = CallPolicy(
            heartbeat_interval=1.0,
            heartbeat_deadline=0.5,
            heartbeat_failure_threshold=2,
        )
        mm = MetaMiddleware(net, backbone, policy=policy)
        island_a = add_toy_island(mm, "a", {"Lamp": (LAMP_IFACE, Lamp())})
        island_b = add_toy_island(
            mm, "b", {"Thermo": (THERMO_IFACE, Thermometer())}
        )
        sim.run_until_complete(mm.connect())
        sim.run_for(3.0)
        health = island_b.gateway.heartbeat.health
        assert health["a"].alive is True
        island_a.node.crash()
        sim.run_for(4.0)
        assert health["a"].alive is False
        assert health["a"].failures >= 2
        island_a.node.restart()
        sim.run_for(3.0)
        assert health["a"].alive is True

    def test_heartbeat_disabled_by_default(self, sim, net):
        backbone = net.create_segment(EthernetSegment, "backbone")
        mm = MetaMiddleware(net, backbone)
        island_a = add_toy_island(mm, "a", {"Lamp": (LAMP_IFACE, Lamp())})
        sim.run_until_complete(mm.connect())
        sim.run_for(10.0)
        assert island_a.gateway.heartbeat.ticks == 0


# ---------------------------------------------------------------------------
# Pooled keep-alive connections under injected faults
# ---------------------------------------------------------------------------


class TestPooledConnectionsUnderFaults:
    """The modern wire must not let a pooled keep-alive connection
    outlive the path it runs over: partitions and crashes give no close
    event (frames just vanish), so eviction has to come from the
    resilience layer's connectivity failures."""

    @pytest.fixture
    def modern_islands(self, sim, net):
        from repro.soap.http import REACTOR_INTERCHANGE

        backbone = net.create_segment(EthernetSegment, "backbone")
        mm = MetaMiddleware(
            net, backbone, policy=CHAOS_POLICY, interchange=REACTOR_INTERCHANGE
        )
        lamp = Lamp()
        island_a = add_toy_island(mm, "a", {"Lamp": (LAMP_IFACE, lamp)})
        island_b = add_toy_island(mm, "b", {"Thermo": (THERMO_IFACE, Thermometer())})
        sim.run_until_complete(mm.connect())
        return mm, island_a, island_b, lamp

    def test_partition_mid_keepalive_evicts_and_retry_succeeds(
        self, sim, net, modern_islands
    ):
        from repro.faults import FaultInjector, FaultPlan, Partition

        mm, island_a, island_b, lamp = modern_islands
        http = island_b.gateway.protocol.client.http
        # Warm the pool: one bridged call pools a keep-alive connection.
        assert sim.run_until_complete(
            island_b.gateway.invoke("Lamp", "set_level", [5])
        ) == 5
        assert http.open_connections()
        pooled_before = http.pooled_exchanges

        # Partition a's gateway off the backbone mid-keep-alive.  The b
        # side keeps its ESTABLISHED pooled connection — frames are
        # silently dropped, no FIN/RST ever arrives.
        plan = FaultPlan(seed=3).at(
            sim.now,
            Partition(
                segment="backbone",
                groups=(
                    frozenset({"gw-a"}),
                    frozenset({"gw-b", "uddi-directory"}),
                ),
                duration=6.0,
            ),
        )
        FaultInjector(net, plan).arm()
        sim.run_for(0.1)  # let the partition install

        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
        # The connectivity failure condemned the pooled connection.
        assert http.pooled_evictions >= 1
        assert http.open_connections() == []

        # Heal, wait out the breaker reset, retry: a *fresh* pooled
        # connection must carry the call end to end.
        sim.run_for(6.0 + CHAOS_POLICY.breaker_reset_timeout)
        assert sim.run_until_complete(
            island_b.gateway.invoke("Lamp", "get_level", [])
        ) == 5
        assert http.pooled_exchanges > pooled_before
        assert http.open_connections()

    def test_crash_mid_keepalive_evicts_and_restart_recovers(self, sim, modern_islands):
        mm, island_a, island_b, lamp = modern_islands
        http = island_b.gateway.protocol.client.http
        assert sim.run_until_complete(
            island_b.gateway.invoke("Lamp", "set_level", [7])
        ) == 7
        assert http.open_connections()

        island_a.node.crash()
        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
        assert http.pooled_evictions >= 1
        assert http.open_connections() == []

        island_a.node.restart()
        sim.run_for(CHAOS_POLICY.breaker_reset_timeout)
        assert sim.run_until_complete(
            island_b.gateway.invoke("Lamp", "get_level", [])
        ) == 7

    def test_breaker_open_evicts_pooled_connection(self, sim, modern_islands):
        """The breaker-open hook itself (not just per-call failures) must
        clear the pool, so half-open probes start from a clean slate."""
        mm, island_a, island_b, lamp = modern_islands
        sim.run_until_complete(island_b.gateway.invoke("Lamp", "set_level", [1]))
        island_a.node.crash()
        # CHAOS_POLICY.breaker_threshold == 2: one invoke (original +
        # stale-refresh retry = 2 connectivity failures) opens the breaker.
        with pytest.raises(DeadlineExceededError):
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "get_level", []))
        breaker = island_b.gateway.resilience.breaker_for("a")
        assert breaker.state == CircuitBreaker.OPEN
        assert island_b.gateway.protocol.client.http.open_connections() == []
