"""End-to-end tests for the sharded, replicated VSR federation: ring
routing, scatter-gather degradation, breaker-aware replica failover,
same-shard lookup batching, negative caching, the find index, the
single-directory wire pin, and the telemetry-plane fold."""

from __future__ import annotations

import random

import pytest

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.core.shard import FederationConfig, HashRing, VsrFederation
from repro.core.vsr import (
    REPLICA_BREAKER_POLICY,
    FederatedDocuments,
    VsrDirectory,
    gateway_ring_key,
)
from repro.errors import (
    DirectoryUnavailableError,
    ServiceNotFoundError,
    SoapFault,
    TransportError,
)
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.obs import Observability
from repro.obs.health import HealthPolicy, score_replica
from repro.soap.wsdl import WsdlDocument

from tests.core.toys import Lamp, Thermometer, ToyPcm
from tests.golden import wire_trace

LAMP_IFACE = simple_interface(
    "Lamp", {"set_level": ("int", "->int"), "get_level": ("->int",)}
)
THERMO_IFACE = simple_interface("Thermo", {"read": ("->double",)})

FED_CONFIG = FederationConfig(
    shards=4,
    replicas=2,
    ring_seed="test-ring",
    sync_interval=1.0,
    find_deadline=3.0,
)


def add_toy_island(mm, name, services):
    return mm.add_island(name, None, lambda island: ToyPcm(island.gateway, services))


@pytest.fixture
def fed_world(sim, net):
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone, federation=FED_CONFIG)
    island_a = add_toy_island(mm, "a", {"Lamp": (LAMP_IFACE, Lamp())})
    island_b = add_toy_island(mm, "b", {"Thermo": (THERMO_IFACE, Thermometer())})
    sim.run_until_complete(mm.connect())
    return mm, island_a, island_b


class TestRingRouting:
    def test_documents_land_on_ring_owner(self, sim, fed_world):
        mm, *_ = fed_world
        federation = mm.federation
        for shard, group in enumerate(federation.replicas):
            primary = group[0].directory
            for service in primary.service_names():
                assert federation.ring.owner(service) == shard
            for island in primary.gateways():
                assert federation.ring.owner(gateway_ring_key(island)) == shard

    def test_gateway_registrations_cover_all_islands(self, sim, fed_world):
        mm, *_ = fed_world
        assert set(mm.federation.view.gateways()) == {"a", "b"}

    def test_cross_island_calls_work_federated(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        assert sim.run_until_complete(
            island_b.gateway.invoke("Lamp", "set_level", [7])
        ) == 7

    def test_keyed_lookup_routes_to_owner(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        client = island_b.gateway.vsr
        owner = mm.federation.ring.owner("Lamp")
        before = [g[0].directory.queries for g in mm.federation.replicas]
        client.invalidate("Lamp")
        document = sim.run_until_complete(client.find_by_name("Lamp"))
        assert document.service == "Lamp"
        after = [g[0].directory.queries for g in mm.federation.replicas]
        # Only the owning shard's primary answered the lookup.
        assert after[owner] == before[owner] + 1
        for shard, count in enumerate(after):
            if shard != owner:
                assert count == before[shard]


class TestAntiEntropy:
    def test_replicas_converge_after_connect(self, sim, fed_world):
        mm, *_ = fed_world
        sim.run(until=sim.now + 10.0)
        federation = mm.federation
        assert federation.converged()
        for group in federation.replicas:
            states = {r.directory.canonical_state_json() for r in group}
            assert len(states) == 1

    def test_registration_survives_primary_loss(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        sim.run(until=sim.now + 10.0)  # let anti-entropy replicate
        client = island_b.gateway.vsr
        owner = mm.federation.ring.owner("Lamp")
        mm.federation.replicas[owner][0].node.crash()
        client.invalidate("Lamp")
        document = sim.run_until_complete(client.find_by_name("Lamp"))
        assert document.service == "Lamp"
        assert client.failovers == 1

    def test_exhausted_deadline_is_not_a_failover(self, sim, fed_world):
        # The primary never answers and uses up the whole lookup deadline:
        # the sibling gets no request that could no longer settle the
        # call, and no failover is counted.
        mm, island_a, island_b = fed_world
        sim.run(until=sim.now + 10.0)  # let anti-entropy replicate
        client = island_b.gateway.vsr
        client.lookup_deadline = 0.5
        owner = mm.federation.ring.owner("Lamp")
        primary, sibling = mm.federation.replicas[owner]
        primary.node.crash()
        client.invalidate("Lamp")
        queries = sibling.directory.queries
        started = sim.now
        with pytest.raises(DirectoryUnavailableError):
            sim.run_until_complete(client.find_by_name("Lamp"))
        assert sim.now - started == pytest.approx(0.5)
        assert client.failovers == 0
        assert sibling.directory.queries == queries

    def test_sole_replica_failure_is_not_a_failover(self, sim, net):
        # One replica per shard: a transport failure has no sibling to
        # fail over to, so it counts no failover, and the replica gets no
        # breaker that could keep failing lookups after a restart.
        backbone = net.create_segment(EthernetSegment, "backbone")
        mm = MetaMiddleware(net, backbone, federation=FederationConfig(shards=2))
        island = add_toy_island(mm, "a", {"Lamp": (LAMP_IFACE, Lamp())})
        sim.run_until_complete(mm.connect())
        client = island.gateway.vsr
        owner = mm.federation.ring.owner("Svc_unseen")
        mm.federation.replicas[owner][0].node.crash()
        with pytest.raises(TransportError):
            sim.run_until_complete(client.find_by_name("Svc_unseen"))
        assert client.lookup_failures == 1
        assert client.failovers == 0
        assert client._breakers == {}


class TestScatterGather:
    def test_find_merges_across_shards(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        client = island_b.gateway.vsr
        documents = sim.run_until_complete(client.find({}))
        assert {d.service for d in documents} == {"Lamp", "Thermo"}
        assert isinstance(documents, FederatedDocuments)
        assert not documents.degraded

    def test_partitioned_shard_degrades_not_raises(self, sim, fed_world):
        # Satellite 3: one shard dark mid-query -> partial results flagged
        # degraded, not an exception.
        mm, island_a, island_b = fed_world
        sim.run(until=sim.now + 5.0)
        client = island_b.gateway.vsr
        owner = mm.federation.ring.owner("Lamp")
        for replica in mm.federation.replicas[owner]:
            replica.node.crash()
        documents = sim.run_until_complete(client.find({}))
        assert isinstance(documents, FederatedDocuments)
        assert documents.degraded
        assert owner in documents.missed_shards
        assert "Lamp" not in {d.service for d in documents}
        assert "Thermo" in {d.service for d in documents}
        assert client.partial_finds == 1

    def test_breaker_open_shard_skipped_without_deadline(self, sim, fed_world):
        # Satellite 3: a breaker-open shard is skipped synchronously — no
        # wire traffic, none of the scatter deadline consumed.
        mm, island_a, island_b = fed_world
        sim.run(until=sim.now + 5.0)
        client = island_b.gateway.vsr
        owner = mm.federation.ring.owner("Lamp")
        for index in range(len(mm.federation.replicas[owner])):
            breaker = client._shard_breaker(owner, index)
            for _ in range(REPLICA_BREAKER_POLICY.breaker_threshold):
                breaker.record_failure()
        skipped_before = client.replicas_skipped_open
        started = sim.now
        documents = sim.run_until_complete(client.find({}))
        elapsed = sim.now - started
        assert documents.degraded
        assert owner in documents.missed_shards
        assert client.replicas_skipped_open >= skipped_before + 2
        # The dark shard resolved synchronously: the sweep took only as
        # long as the healthy shards' round trips, nowhere near the
        # per-shard deadline the skip would otherwise have burned.
        assert elapsed < FED_CONFIG.find_deadline

    def test_all_shards_down_find_returns_fully_degraded(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        sim.run(until=sim.now + 5.0)
        client = island_b.gateway.vsr
        for group in mm.federation.replicas:
            for replica in group:
                replica.node.crash()
        documents = sim.run_until_complete(client.find({}))
        assert documents == []
        assert documents.degraded
        assert list(documents.missed_shards) == [0, 1, 2, 3]


class TestLookupBatching:
    def test_same_shard_same_instant_lookups_batch(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        client = island_b.gateway.vsr
        ring = mm.federation.ring
        # Publish a pile of extra services and find two on one shard.
        names = [f"Svc_batch{i}" for i in range(40)]
        for name in names:
            mm.federation.view.publish(
                WsdlDocument(
                    service=name,
                    location=f"soap://backbone/1:8080/{name}",
                    context={"island": "a"},
                )
            )
        by_shard: dict[int, list[str]] = {}
        for name in names:
            by_shard.setdefault(ring.owner(name), []).append(name)
        shard, group = next(
            (s, g) for s, g in sorted(by_shard.items()) if len(g) >= 3
        )
        wanted = group[:3]
        futures = [client.find_by_name(name) for name in wanted]
        sim.run(until=sim.now + 5.0)
        assert [f.result().service for f in futures] == wanted
        # Three distinct names, one shard, one instant: one find_many
        # exchange, two round trips saved.
        assert client.batched_lookups == 2

    def test_batched_absent_name_gets_not_found(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        client = island_b.gateway.vsr
        ring = mm.federation.ring
        # Find a ghost name sharing a shard with a real service.
        ghost = next(
            f"Svc_ghost{i}"
            for i in range(1000)
            if ring.owner(f"Svc_ghost{i}") == ring.owner("Lamp")
        )
        client.invalidate("Lamp")
        real = client.find_by_name("Lamp")
        missing = client.find_by_name(ghost)
        sim.run(until=sim.now + 5.0)
        assert real.result().service == "Lamp"
        assert isinstance(missing.exception(), ServiceNotFoundError)


class TestNegativeCache:
    # Satellite 2: a failed find_by_name is negative-cached for a short
    # TTL, invalidated by publish/invalidate (the on_change chain).

    def test_negative_verdict_cached_within_ttl(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        client = island_b.gateway.vsr
        with pytest.raises(SoapFault) as fault:
            sim.run_until_complete(client.find_by_name("Svc_nope"))
        assert fault.value.detail == "ServiceNotFoundError"  # authoritative
        lookups_before = client.remote_lookups
        with pytest.raises(ServiceNotFoundError, match="negative-cached"):
            sim.run_until_complete(client.find_by_name("Svc_nope"))
        assert client.negative_hits == 1
        assert client.remote_lookups == lookups_before  # no wire round trip

    def test_negative_entry_expires_after_ttl(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        client = island_b.gateway.vsr
        with pytest.raises(SoapFault):
            sim.run_until_complete(client.find_by_name("Svc_nope"))
        sim.run(until=sim.now + client.negative_ttl + 0.001)
        lookups_before = client.remote_lookups
        with pytest.raises(SoapFault):
            sim.run_until_complete(client.find_by_name("Svc_nope"))
        assert client.remote_lookups == lookups_before + 1  # re-issued

    def test_invalidate_drops_negative_entry(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        client = island_b.gateway.vsr
        with pytest.raises(SoapFault):
            sim.run_until_complete(client.find_by_name("Svc_late"))
        # The service appears; the on_change/unregister chain invalidates.
        mm.federation.view.publish(
            WsdlDocument(
                service="Svc_late",
                location="soap://backbone/1:8080/Svc_late",
                context={"island": "a"},
            )
        )
        client.invalidate("Svc_late")
        document = sim.run_until_complete(client.find_by_name("Svc_late"))
        assert document.service == "Svc_late"

    def test_own_publish_drops_negative_entry(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        client = island_b.gateway.vsr
        with pytest.raises(SoapFault):
            sim.run_until_complete(client.find_by_name("Svc_mine"))
        sim.run_until_complete(
            client.publish(
                WsdlDocument(
                    service="Svc_mine",
                    location="soap://backbone/1:8080/Svc_mine",
                    context={"island": "b"},
                )
            )
        )
        document = sim.run_until_complete(client.find_by_name("Svc_mine"))
        assert document.service == "Svc_mine"

    def test_legacy_client_negative_cache_too(self, sim, net):
        # Pin the TTL path on the default single-directory home as well.
        backbone = net.create_segment(EthernetSegment, "backbone")
        mm = MetaMiddleware(net, backbone)
        island = add_toy_island(mm, "a", {"Lamp": (LAMP_IFACE, Lamp())})
        sim.run_until_complete(mm.connect())
        client = island.gateway.vsr
        with pytest.raises(SoapFault):
            sim.run_until_complete(client.find_by_name("Svc_nope"))
        before = client.remote_lookups
        with pytest.raises(ServiceNotFoundError, match="negative-cached"):
            sim.run_until_complete(client.find_by_name("Svc_nope"))
        assert client.negative_hits == 1
        assert client.remote_lookups == before


class TestFindIndex:
    # Satellite 1: the inverted context index must agree with the
    # reference linear scan on any directory and any filter.

    def test_index_matches_scan_on_randomized_directories(self):
        rng = random.Random(212)
        keys = ["island", "middleware", "kind", "room", "vendor"]
        values = ["a", "b", "c", "d"]
        for round_number in range(20):
            directory = VsrDirectory()
            live: set[str] = set()
            for i in range(rng.randrange(1, 60)):
                name = f"Svc_{rng.randrange(30)}"
                if name in live and rng.random() < 0.3:
                    directory.withdraw(name)
                    live.discard(name)
                    continue
                context = {
                    key: rng.choice(values)
                    for key in rng.sample(keys, rng.randrange(0, len(keys) + 1))
                }
                directory.publish(
                    WsdlDocument(
                        service=name,
                        location=f"soap://backbone/1:8080/{name}",
                        context=context,
                    )
                )
                live.add(name)
            for _ in range(15):
                query = {
                    key: rng.choice(values)
                    for key in rng.sample(keys, rng.randrange(0, 3))
                }
                assert directory.find(dict(query)) == directory._find_scan(
                    dict(query)
                ), f"round {round_number}: filter {query} diverged"

    def test_republish_updates_index(self):
        directory = VsrDirectory()
        directory.publish(
            WsdlDocument(service="S", location="soap://x/1:1/S", context={"k": "old"})
        )
        directory.publish(
            WsdlDocument(service="S", location="soap://x/1:1/S", context={"k": "new"})
        )
        assert directory.find({"k": "old"}) == []
        assert [d.service for d in directory.find({"k": "new"})] == ["S"]
        assert directory.find({"k": "old"}) == directory._find_scan({"k": "old"})


class TestLegacyWirePin:
    def test_trivial_federation_wire_is_byte_identical(self):
        # The acceptance pin: the default 1-shard/1-replica plane must
        # produce, frame for frame, the wire recorded from the single
        # directory before it became that plane (tests/golden).
        sim = Simulator()
        net = Network(sim)
        backbone = net.create_segment(EthernetSegment, "backbone")
        monitor = TrafficMonitor(trace_enabled=True).watch(backbone)
        mm = MetaMiddleware(net, backbone)
        add_toy_island(mm, "a", {"Lamp": (LAMP_IFACE, Lamp())})
        island_b = add_toy_island(mm, "b", {"Thermo": (THERMO_IFACE, Thermometer())})
        sim.run_until_complete(mm.connect())
        sim.run_until_complete(island_b.gateway.invoke("Lamp", "set_level", [3]))
        sim.run_until_complete(island_b.gateway.vsr.find({}))
        mm.shutdown()
        sim.run(until=sim.now + 60.0)
        assert monitor.trace_dropped == 0
        assert monitor.trace == wire_trace("toy_islands_invoke_and_find")


class TestTelemetryFold:
    # Satellite 6: shard/replica gauges + health scoring.

    def test_observe_registers_and_refreshes_gauges(self, sim, net):
        backbone = net.create_segment(EthernetSegment, "backbone")
        obs = Observability(sim)
        federation = VsrFederation(
            net, backbone, FederationConfig(shards=2, replicas=2), obs=obs
        )
        federation.observe(obs)
        snapshot = obs.metrics.snapshot()
        assert snapshot["vsr.fed.shards"] == 2
        assert snapshot["vsr.fed.ring_points"] == 2 * 64
        federation.view.publish(
            WsdlDocument(service="S", location="soap://x/1:1/S", context={})
        )
        snapshot = obs.metrics.snapshot()
        owner = federation.ring.owner("S")
        assert snapshot[f"vsr.fed.vsr-s{owner}r0.keys_owned"] == 1

    def test_unconverged_replica_scores_unhealthy(self):
        policy = HealthPolicy()
        fine = score_replica(
            policy, "r0", convergence_lag=1.0, sync_interval=2.0, peers=2
        )
        assert fine["status"] == "healthy"
        chasing = score_replica(
            policy, "r0", convergence_lag=5.0, sync_interval=2.0, peers=2
        )
        assert chasing["status"] == "degraded"
        assert "converging" in chasing["reasons"]
        dark = score_replica(
            policy, "r0", convergence_lag=11.0, sync_interval=2.0, peers=2
        )
        assert dark["status"] == "unhealthy"
        assert "unconverged" in dark["reasons"]
        down = score_replica(
            policy, "r0", convergence_lag=0.0, sync_interval=2.0, peers=2, alive=False
        )
        assert down["status"] == "unhealthy"
        assert "replica-down" in down["reasons"]

    def test_collector_snapshot_folds_federation(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        from repro.obs.telemetry import TelemetryCollector

        sim.run(until=sim.now + 10.0)  # converge first
        collector = TelemetryCollector(island_b.gateway).attach_federation(
            mm.federation
        )
        snapshot = collector.federation_snapshot()
        section = snapshot["vsr_federation"]
        assert section["shards"] == FED_CONFIG.shards
        assert section["converged"] is True
        replica_entries = [
            entry
            for shard in section["per_shard"]
            for entry in shard["replicas"]
        ]
        assert len(replica_entries) == FED_CONFIG.shards * FED_CONFIG.replicas
        assert all(e["health"]["status"] == "healthy" for e in replica_entries)

    def test_collector_flags_dead_replica(self, sim, fed_world):
        mm, island_a, island_b = fed_world
        from repro.obs.telemetry import TelemetryCollector

        sim.run(until=sim.now + 10.0)
        mm.federation.replicas[0][1].node.crash()
        collector = TelemetryCollector(island_b.gateway).attach_federation(
            mm.federation
        )
        section = collector.federation_snapshot()["vsr_federation"]
        entry = section["per_shard"][0]["replicas"][1]
        assert entry["health"]["status"] == "unhealthy"
        assert "replica-down" in entry["health"]["reasons"]


class TestRingRebalance:
    def test_moved_keys_is_the_exact_migration_set(self):
        keys = [f"Svc_{i}" for i in range(500)]
        old = HashRing(4, seed="r")
        new = HashRing(5, seed="r")
        moved = set(HashRing.moved_keys(old, new, keys))
        for key in keys:
            assert (old.owner(key) != new.owner(key)) == (key in moved)
