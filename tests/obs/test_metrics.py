"""Unit tests for the metrics registry and the exporters."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NOOP_OBS,
    CountsOnlyMetrics,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    Observability,
    snapshot_to_json,
)


@pytest.fixture
def metrics() -> MetricsRegistry:
    return MetricsRegistry()


class TestInstruments:
    def test_counter_increments(self, metrics):
        counter = metrics.counter("calls")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_counter_is_memoized_by_name(self, metrics):
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.counter("a") is not metrics.counter("b")

    def test_gauge_set_and_add(self, metrics):
        gauge = metrics.gauge("pool.size")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0

    def test_histogram_buckets_count_and_overflow(self):
        histogram = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["le_0.01"] == 1
        assert snap["le_0.1"] == 1
        assert snap["le_1.0"] == 1
        assert snap["overflow"] == 1
        assert snap["min"] == 0.005
        assert snap["max"] == 5.0
        assert snap["sum"] == pytest.approx(5.555)

    def test_histogram_default_buckets(self, metrics):
        histogram = metrics.histogram("lat")
        assert histogram.bounds == tuple(sorted(DEFAULT_BUCKETS))

    def test_histogram_mismatched_buckets_rejected(self, metrics):
        metrics.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            metrics.histogram("lat", buckets=(3.0,))


class TestSnapshot:
    def test_snapshot_is_name_sorted_and_flat(self, metrics):
        metrics.counter("z.calls").inc()
        metrics.gauge("a.size").set(2.0)
        metrics.histogram("m.lat", buckets=(1.0,)).observe(0.5)
        snapshot = metrics.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["z.calls"] == 1
        assert snapshot["a.size"] == 2.0
        assert snapshot["m.lat.count"] == 1

    def test_to_json_deterministic(self, metrics):
        metrics.counter("b").inc()
        metrics.counter("a").inc(2)
        first = metrics.to_json()
        other = MetricsRegistry()
        other.counter("a").inc(2)  # registered in a different order
        other.counter("b").inc()
        assert first == other.to_json()
        assert json.loads(first) == {"a": 2, "b": 1}

    def test_snapshot_to_json_deterministic(self, metrics):
        metrics.counter("b").inc()
        metrics.counter("a").inc(2)
        snapshot = metrics.snapshot()
        reordered = dict(reversed(list(snapshot.items())))
        assert snapshot_to_json(snapshot) == snapshot_to_json(reordered)


class _Owner:
    def __init__(self, calls: int = 0, depth: int = 0) -> None:
        self.calls = calls
        self.depth = depth


class TestTracked:
    def test_snapshot_reads_the_attribute_live(self, metrics):
        owner = _Owner()
        metrics.track("vsg.jini", owner, "counter", {"calls_out": "calls"})
        assert metrics.snapshot() == {"vsg.jini.calls_out": 0}
        owner.calls = 3
        assert metrics.snapshot() == {"vsg.jini.calls_out": 3}

    def test_same_name_sources_sum(self, metrics):
        first, second = _Owner(calls=2), _Owner(calls=5)
        metrics.track("http.jini", first, "counter", {"requests": "calls"})
        metrics.track("http.jini", second, "counter", {"requests": "calls"})
        assert metrics.snapshot()["http.jini.requests"] == 7
        assert metrics.value("http.jini.requests") == 7

    def test_kinds_split_into_monotonic_and_level(self, metrics):
        owner = _Owner(calls=4, depth=2)
        metrics.track("reactor.a", owner, "counter", {"cycles": "calls"})
        metrics.track("reactor.a", owner, "gauge", {"parked": "depth"})
        monotonic, level = metrics.snapshot_typed()
        assert monotonic == {"reactor.a.cycles": 4}
        assert level == {"reactor.a.parked": 2}

    def test_one_writer_per_name(self, metrics):
        metrics.track("vsg.jini", _Owner(), "counter", {"calls_out": "calls"})
        with pytest.raises(ValueError):
            metrics.counter("vsg.jini.calls_out")
        with pytest.raises(ValueError):
            metrics.gauge("vsg.jini.calls_out")
        metrics.counter("vsg.jini.calls_in")
        with pytest.raises(ValueError):
            metrics.track("vsg.jini", _Owner(), "counter", {"calls_in": "calls"})
        with pytest.raises(ValueError):
            metrics.track("vsg.jini", _Owner(), "gauge", {"calls_out": "calls"})

    def test_value_never_creates(self, metrics):
        metrics.counter("a").inc(2)
        assert metrics.value("a") == 2
        assert metrics.value("no.such.metric") == 0
        assert metrics.snapshot() == {"a": 2}


class TestTrackedRecords:
    def test_every_record_the_mapping_holds_is_read_live(self, metrics):
        records: dict[str, _Owner] = {}
        metrics.track_each("resilience.a.breaker", records, "counter", ("calls",))
        metrics.track_each("resilience.a.breaker", records, "gauge", {"state": "depth"})
        assert metrics.snapshot() == {}
        records["b"] = _Owner(calls=3, depth=2)
        assert metrics.snapshot() == {
            "resilience.a.breaker.b.calls": 3,
            "resilience.a.breaker.b.state": 2,
        }
        assert metrics.value("resilience.a.breaker.b.calls") == 3
        assert metrics.value("resilience.a.breaker.c.calls") == 0
        records.clear()
        records["c"] = _Owner(calls=1)
        assert metrics.snapshot() == {
            "resilience.a.breaker.c.calls": 1,
            "resilience.a.breaker.c.state": 0,
        }

    def test_records_can_be_left_out_of_the_typed_snapshot(self, metrics):
        metrics.track("vsg.a", _Owner(calls=1), "counter", ("calls",))
        metrics.track_each("heartbeat.a", {"b": _Owner(calls=2)}, "counter", ("calls",))
        assert metrics.snapshot_typed() == (
            {"heartbeat.a.b.calls": 2, "vsg.a.calls": 1},
            {},
        )
        assert metrics.snapshot_typed(records=False) == ({"vsg.a.calls": 1}, {})

    def test_unknown_kind_rejected(self, metrics):
        with pytest.raises(ValueError):
            metrics.track_each("x", {}, "histogram", ("calls",))


class TestCountsOnlyMetrics:
    def test_tracks_but_pushes_nothing(self):
        counts = CountsOnlyMetrics()
        assert not counts.enabled
        assert counts.counter("a") is NullMetrics().counter("b")
        counts.counter("a").inc()
        counts.histogram("lat").observe(1.0)
        counts.track("vsg.a", _Owner(calls=4), "counter", ("calls",))
        assert counts.snapshot() == {"vsg.a.calls": 4}
        assert counts.value("a") == 0

    def test_a_disabled_bundle_traces_nothing_and_keeps_counts(self):
        obs = Observability(object(), enabled=False)
        assert not obs.enabled and not obs.tracer.enabled
        assert isinstance(obs.metrics, CountsOnlyMetrics)


class TestNullMetrics:
    def test_shared_default_keeps_no_owner(self):
        from repro.apps.home import build_smart_home
        from repro.net.simkernel import Simulator

        home = build_smart_home(Simulator(), with_havi=False, with_mail=False)
        home.connect()
        home.invoke_from("jini", "X10_A1_hall_lamp", "turn_on")
        assert vars(NOOP_OBS.metrics) == {}
        assert NOOP_OBS.metrics.snapshot() == {}

    def test_all_lookups_share_one_inert_instrument(self):
        null = NullMetrics()
        assert not null.enabled
        instrument = null.counter("x")
        assert null.gauge("y") is instrument
        assert null.histogram("z") is instrument
        instrument.inc()
        instrument.add(1.0)
        instrument.set(2.0)
        instrument.observe(3.0)
        null.track("vsg.jini", _Owner(calls=1), "counter", {"calls_out": "calls"})
        assert null.value("vsg.jini.calls_out") == 0
        assert null.snapshot() == {}
