"""Unit tests for the telemetry plane: agent deltas, collector merge,
health scoring.

The merge-idempotence tests are the ISSUE-8 satellite: duplicated and
reordered delta reports (at-least-once redelivery on the event plane)
must yield byte-identical federation snapshots.
"""

from __future__ import annotations

import pytest

from repro.net.simkernel import Simulator
from repro.obs import Observability
from repro.obs.health import (
    DEGRADED,
    HEALTHY,
    MIN_SAMPLES,
    UNHEALTHY,
    latency_quantiles,
    quantile_from_buckets,
    score_island,
)
from repro.obs.telemetry import (
    TELEMETRY_TOPIC_PREFIX,
    TelemetryAgent,
    TelemetryCollector,
)


class StubVsg:
    """The duck-typed slice of a VSG the telemetry classes touch."""

    def __init__(self, sim: Simulator, island: str, obs: Observability) -> None:
        self.sim = sim
        self.island = island
        self.obs = obs
        self.published: list[tuple[str, dict]] = []

    def publish_event(self, topic: str, payload: dict) -> None:
        self.published.append((topic, payload))


def make_agent(island: str = "a", interval: float = 5.0):
    sim = Simulator()
    obs = Observability(sim)
    vsg = StubVsg(sim, island, obs)
    return sim, obs, vsg, TelemetryAgent(vsg, interval=interval)


def make_collector(island: str = "hub"):
    sim = Simulator()
    obs = Observability(sim)
    vsg = StubVsg(sim, island, obs)
    return sim, vsg, TelemetryCollector(vsg)


class TestAgent:
    def test_scope_filter_is_dotted_component(self):
        sim, obs, vsg, agent = make_agent("a")
        obs.metrics.counter("vsg.a.calls_out").inc(3)
        obs.metrics.counter("vsg.ab.calls_out").inc(9)  # not island "a"
        obs.metrics.counter("resilience.a.attempts").inc(1)
        monotonic, _level = agent.collect()
        assert monotonic == {"vsg.a.calls_out": 3, "resilience.a.attempts": 1}

    def test_counters_ship_as_increments(self):
        sim, obs, vsg, agent = make_agent("a")
        counter = obs.metrics.counter("vsg.a.calls_out")
        counter.inc(3)
        first = agent.build_report()
        counter.inc(2)
        second = agent.build_report()
        assert first["counters"] == {"vsg.a.calls_out": 3}
        assert second["counters"] == {"vsg.a.calls_out": 2}
        assert (first["seq"], second["seq"]) == (1, 2)
        assert agent.emitted_totals == {"vsg.a.calls_out": 5}

    def test_unchanged_counters_are_omitted_from_the_delta(self):
        sim, obs, vsg, agent = make_agent("a")
        obs.metrics.counter("vsg.a.calls_out").inc(3)
        agent.build_report()
        second = agent.build_report()
        assert second["counters"] == {}

    def test_gauges_ship_absolute(self):
        sim, obs, vsg, agent = make_agent("a")
        gauge = obs.metrics.gauge("events.a.parked")
        gauge.set(4.0)
        assert agent.build_report()["gauges"] == {"events.a.parked": 4.0}
        gauge.set(1.0)
        assert agent.build_report()["gauges"] == {"events.a.parked": 1.0}

    def test_drift_free_schedule(self):
        sim, obs, vsg, agent = make_agent("a", interval=5.0)
        sim.schedule(1.0, agent.start)  # epoch = 1.0
        sim.run(until=22.0)
        agent.stop()
        times = [payload["time"] for _topic, payload in vsg.published]
        assert times == [6.0, 11.0, 16.0, 21.0]
        assert [p["seq"] for _t, p in vsg.published] == [1, 2, 3, 4]
        assert agent.occurrence(3) == 16.0

    def test_disabled_agent_never_publishes(self):
        sim, obs, vsg, agent = make_agent("a")
        agent.enabled = False
        agent.start()
        sim.run(until=30.0)
        assert vsg.published == []
        assert agent.emit() is None

    def test_reports_publish_under_island_topic(self):
        sim, obs, vsg, agent = make_agent("a")
        agent.emit()
        assert vsg.published[0][0] == TELEMETRY_TOPIC_PREFIX + "a"

    def test_collect_is_the_registry_slice_and_nothing_else(self):
        """On a live gateway the agent reads only the registry: its values
        are ``snapshot_typed(records=False)`` restricted to the island's
        names, even with a TrafficMonitor watching the same wire.  Names
        read through a mapping of records (the breakers) are not
        shipped."""
        from repro.core.framework import MetaMiddleware
        from repro.core.interface import simple_interface
        from repro.net.monitor import TrafficMonitor
        from repro.net.network import Network
        from repro.net.segment import EthernetSegment

        from tests.core.toys import Lamp, ToyPcm

        sim = Simulator()
        obs = Observability(sim)
        net = Network(sim)
        backbone = net.create_segment(EthernetSegment, "backbone")
        TrafficMonitor().watch(backbone)
        mm = MetaMiddleware(net, backbone, obs=obs)
        iface = simple_interface("Lamp", {"get_level": ("->int",)})
        mm.add_island("a", None, lambda island: ToyPcm(island.gateway, {}))
        mm.add_island(
            "b", None, lambda island: ToyPcm(island.gateway, {"Lamp": (iface, Lamp())})
        )
        sim.run_until_complete(mm.connect())
        gateway = mm.islands["a"].gateway
        assert sim.run_until_complete(gateway.invoke("Lamp", "get_level", [])) == 0

        monotonic, level = TelemetryAgent(gateway).collect()
        mono_all, level_all = obs.metrics.snapshot_typed(records=False)
        assert monotonic == {
            name: value for name, value in mono_all.items() if "a" in name.split(".")
        }
        assert level == {
            name: value
            for name, value in level_all.items()
            if value is not None and "a" in name.split(".")
        }
        assert monotonic["vsg.a.calls_out"] == 1
        assert "reactor.a.cycles" in monotonic and "reactor.a.parked" in level
        assert not any(name.startswith("traffic.") for name in monotonic)
        assert obs.metrics.snapshot()["resilience.a.breaker.b.opens"] == 0
        assert not any(".breaker." in name for name in (*monotonic, *level))


def agent_reports(n: int = 4) -> list[dict]:
    """n self-consistent delta reports with float-valued increments
    (histogram sums), so arrival-order folding would diverge."""
    sim, obs, vsg, agent = make_agent("a", interval=1.0)
    histogram = obs.metrics.histogram("vsg.a.call_latency")
    counter = obs.metrics.counter("vsg.a.calls_out")
    reports = []
    for index in range(n):
        counter.inc(index + 1)
        histogram.observe(0.1 * (index + 1) + 1e-3)
        obs.metrics.gauge("events.a.parked").set(float(index))
        reports.append(agent.build_report())
    return reports


class TestCollectorMerge:
    def test_duplicates_are_dropped_not_double_counted(self):
        reports = agent_reports(3)
        sim, vsg, collector = make_collector()
        for report in reports:
            assert collector.ingest(report)
        baseline = collector.island_totals("a")
        for report in reports:
            assert not collector.ingest(report)  # redelivery
        assert collector.island_totals("a") == baseline
        assert collector.duplicates_dropped == 3

    def test_reordered_and_duplicated_snapshots_are_byte_identical(self):
        """The satellite contract: any at-least-once delivery order of the
        same reports converges to one federation snapshot, byte for byte."""
        reports = agent_reports(4)
        orders = [
            [0, 1, 2, 3],
            [3, 2, 1, 0],
            [1, 3, 0, 2],
            [0, 0, 2, 1, 2, 3, 1, 0, 3, 3],  # duplicates interleaved
        ]
        snapshots = []
        for order in orders:
            sim, vsg, collector = make_collector()
            for index in order:
                collector.ingest(dict(reports[index]))
            snapshots.append(collector.snapshot_json())
        assert len(set(snapshots)) == 1

    def test_gauges_come_from_highest_sequence(self):
        reports = agent_reports(3)
        sim, vsg, collector = make_collector()
        collector.ingest(reports[2])
        collector.ingest(reports[0])  # stale reorder must not win
        assert collector.island_totals("a")  # counters merged from both
        view_gauges = collector.federation_snapshot()["islands"]["a"]["gauges"]
        assert view_gauges["events.a.parked"] == 2.0

    def test_out_of_order_totals_fold_in_sequence_order(self):
        reports = agent_reports(3)
        in_order = make_collector()[2]
        for report in reports:
            in_order.ingest(report)
        shuffled = make_collector()[2]
        for index in (2, 0, 1):
            shuffled.ingest(reports[index])
        assert shuffled.island_totals("a") == in_order.island_totals("a")

    def test_malformed_reports_are_counted_and_dropped(self):
        sim, vsg, collector = make_collector()
        assert not collector.ingest({"island": "a"})  # no seq
        assert not collector.ingest({"island": "a", "seq": 0})  # bad seq
        assert collector.malformed_dropped == 2
        assert collector.islands() == []

    def test_max_seq_and_staleness_tracked(self):
        reports = agent_reports(2)
        sim, vsg, collector = make_collector()
        collector.ingest(reports[1])
        assert collector.island_max_seq("a") == 2
        assert collector.federation_snapshot()["islands"]["a"]["time"] == reports[1]["time"]


class TestCollectorHealth:
    def test_health_transition_exports_gauge_and_transition_record(self):
        sim, vsg, collector = make_collector()
        for report in agent_reports(2):
            collector.ingest(report)
        assert collector.status("a") == HEALTHY
        transitions = [t for t in collector.transitions if t["island"] == "a"]
        assert transitions and transitions[0]["to"] == HEALTHY
        gauge = vsg.obs.metrics.gauge("telemetry.hub.health.a")
        assert gauge.value == 0

    def test_stale_island_goes_unhealthy(self):
        sim, vsg, collector = make_collector()
        report = agent_reports(1)[0]
        report["interval"] = 1.0
        collector.ingest(report)
        sim.run(until=report["time"] + 10.0)
        health = collector.status_for("a")
        assert health["status"] == UNHEALTHY
        assert "telemetry-stale" in health["reasons"]

    def test_listener_sees_transitions(self):
        sim, vsg, collector = make_collector()
        seen: list[tuple[str, str, str]] = []
        collector.add_listener(lambda island, old, new: seen.append((island, old, new)))
        for report in agent_reports(1):
            collector.ingest(report)
        assert seen == [("a", "", HEALTHY)]


class TestHealthScoring:
    def test_quantile_interpolates_inside_bucket(self):
        # 4 observations: 2 in (0, 0.001], 2 in (0.001, 0.01].
        assert quantile_from_buckets({0.001: 2, 0.01: 2}, 0, 0.5) == pytest.approx(
            0.001
        )
        q75 = quantile_from_buckets({0.001: 2, 0.01: 2}, 0, 0.75)
        assert 0.001 < q75 <= 0.01

    def test_quantile_overflow_clamps_to_last_bound(self):
        assert quantile_from_buckets({0.001: 1}, 9, 0.99) == 0.001

    def test_quantile_empty_histogram_is_none(self):
        assert quantile_from_buckets({}, 0, 0.5) is None

    def test_latency_quantiles_parse_bounds_from_keys(self):
        counters = {
            "vsg.a.call_latency.le_0.001": 5,
            "vsg.a.call_latency.le_0.01": 5,
            "vsg.a.call_latency.overflow": 0,
        }
        quantiles = latency_quantiles(counters, "vsg.a.call_latency")
        assert set(quantiles) == {"p50", "p99"}
        assert quantiles["p50"] == pytest.approx(0.001)

    def test_success_rate_thresholds(self):
        good = {"resilience.a.attempts": 10, "resilience.a.successes": 10}
        bad = {"resilience.a.attempts": 10, "resilience.a.successes": 2}
        meh = {"resilience.a.attempts": 10, "resilience.a.successes": 8}
        assert score_island("a", good)["status"] == HEALTHY
        assert score_island("a", bad)["status"] == UNHEALTHY
        assert score_island("a", meh)["status"] == DEGRADED

    def test_min_samples_guards_small_windows(self):
        tiny = {"resilience.a.attempts": MIN_SAMPLES - 1, "resilience.a.successes": 0}
        assert score_island("a", tiny)["status"] == HEALTHY

    def test_heartbeat_death_and_breaker_condemn(self):
        dead = score_island("a", {}, heartbeat_dead=True)
        assert dead["status"] == UNHEALTHY and "heartbeat-dead" in dead["reasons"]
        opened = score_island("a", {}, breaker_state="open")
        assert opened["status"] == UNHEALTHY and "breaker-open" in opened["reasons"]
        probing = score_island("a", {}, breaker_state="half-open")
        assert probing["status"] == DEGRADED

    def test_breaker_opens_and_channel_deaths_degrade(self):
        counters = {"resilience.a.breaker.b.to_open": 1}
        assert score_island("a", counters)["status"] == DEGRADED
        deaths = {"events.a.channel_deaths": 2}
        scored = score_island("a", deaths)
        assert scored["status"] == DEGRADED
        assert "channel-fallback" in scored["reasons"]
