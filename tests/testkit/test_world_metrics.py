"""A testkit world reads every count from its own registry, observability
on or off.

F6 prints each breaker's fast-fail count; the registry must report the
same numbers the objects keep, on a world whose tracer is off.
"""

from __future__ import annotations

from repro.testkit.topology import IslandSpec, TopologySpec, build_world


def outage_spec() -> TopologySpec:
    return TopologySpec(
        seed=9_700,
        islands=(
            IslandSpec("alpha", "jini", ("Svc_alpha_0",), "legacy", 1.0),
            IslandSpec("beta", "upnp", ("Svc_beta_0",), "legacy", 1.0),
        ),
        obs_enabled=False,
        deadline=1.0,
        max_retries=0,
        breaker_threshold=2,
        heartbeat_interval=1.0,
    )


def test_obs_off_registry_reports_breaker_and_heartbeat_counts():
    world = build_world(outage_spec())
    sim = world.sim
    sim.run_until_complete(world.mm.connect())
    world.mm.islands["beta"].gateway.node.crash()
    gateway = world.mm.islands["alpha"].gateway
    # Calls into the outage: two time out and open the breaker, the rest
    # fail fast until the reset timeout admits a probe.
    for index in range(40):
        sim.at(sim.now + index * 0.5, lambda: gateway.invoke("Svc_beta_0", "get", []))
    sim.run(until=sim.now + 25.0)

    metrics = world.obs.metrics
    assert not world.obs.enabled and not metrics.enabled
    breaker = gateway.resilience.breakers["beta"]
    assert breaker.fast_failures > 0 and breaker.probes > 0
    prefix = "resilience.alpha.breaker.beta"
    assert metrics.value(f"{prefix}.fast_failures") == breaker.fast_failures
    assert metrics.value(f"{prefix}.probes") == breaker.probes
    assert metrics.value(f"{prefix}.opens") == breaker.opens
    assert metrics.value(f"{prefix}.state") == breaker.LEVELS[breaker.state]
    record = gateway.heartbeat.health["beta"]
    assert record.pings > 0 and record.failures > 0
    assert metrics.value("heartbeat.alpha.beta.pings") == record.pings
    assert metrics.value("heartbeat.alpha.beta.failures") == record.failures
    assert metrics.value("heartbeat.alpha.beta.alive") == record.alive == 0
    # The snapshot holds the same values, and pushed instruments stay off.
    snapshot = metrics.snapshot()
    assert snapshot[f"{prefix}.fast_failures"] == breaker.fast_failures
    assert snapshot["heartbeat.alpha.beta.pings"] == record.pings
    assert not any(name.endswith(".to_open") for name in snapshot)
    assert not any(name.endswith("call_latency.count") for name in snapshot)


def test_traffic_tallies_survive_a_monitor_reset():
    world = build_world(outage_spec())
    world.sim.run_until_complete(world.mm.connect())
    metrics = world.obs.metrics
    assert metrics.value("traffic.tcp.frames") == world.monitor.stats["tcp"].frames > 0
    world.monitor.reset()
    assert metrics.value("traffic.tcp.frames") == 0
    world.mm.islands["alpha"].gateway.invoke("Svc_beta_0", "get", [])
    world.sim.run(until=world.sim.now + 5.0)
    assert metrics.value("traffic.tcp.frames") == world.monitor.stats["tcp"].frames > 0
