"""Unit tests for the per-node flight recorder."""

from __future__ import annotations

import json

from repro.net.simkernel import Simulator
from repro.obs.flight import CAPACITY, MAX_DUMPS, FlightRecorder, dumps_json
from repro.obs.trace import Tracer


class TestRing:
    def test_records_are_timestamped_and_ordered(self):
        sim = Simulator()
        recorder = FlightRecorder(sim, node="gw-a")
        recorder.record("span", name="one")
        sim.schedule(2.0, lambda: recorder.record("span", name="two"))
        sim.run()
        assert [entry["time"] for entry in recorder.records] == [0.0, 2.0]
        assert recorder.records[1]["name"] == "two"

    def test_capacity_bounds_the_ring_and_counts_drops(self):
        recorder = FlightRecorder(Simulator())
        for index in range(CAPACITY + 7):
            recorder.record("frame", index=index)
        assert len(recorder.records) == CAPACITY
        assert recorder.dropped == 7
        assert [entry["index"] for entry in recorder.records] == list(range(7, CAPACITY + 7))

    def test_trigger_caps_dumps_but_counts_triggers(self):
        recorder = FlightRecorder(Simulator())
        recorder.record("span", name="x")
        for _ in range(MAX_DUMPS):
            assert recorder.trigger("node-crash") is not None
        assert recorder.trigger("oracle-failure") is None  # past the cap
        assert len(recorder.dumps) == MAX_DUMPS
        assert recorder.triggers == MAX_DUMPS + 1

    def test_dump_json_is_deterministic(self):
        def run() -> str:
            sim = Simulator()
            recorder = FlightRecorder(sim, node="gw-a")
            recorder.record("frame", segment="backbone", size=100, dropped=False)
            sim.schedule(1.5, lambda: recorder.trigger("node-crash"))
            sim.run()
            return recorder.dump_json()

        first, second = run(), run()
        assert first == second
        parsed = json.loads(first)
        assert parsed["reason"] == "node-crash"
        assert parsed["dumped_at"] == 1.5
        assert parsed["records"][0]["kind"] == "frame"

    def test_dump_freezes_the_ring(self):
        recorder = FlightRecorder(Simulator())
        recorder.record("span", name="before")
        dump = recorder.trigger("node-crash")
        recorder.record("span", name="after")
        assert [entry["name"] for entry in dump["records"]] == ["before"]


class TestWatchers:
    def test_watch_tracer_records_finished_spans_for_its_island(self):
        sim = Simulator()
        tracer = Tracer(sim)
        recorder = FlightRecorder(sim, node="gw-a").watch_tracer(tracer, island="a")
        tracer.start_span("keep", island="a").finish()
        tracer.start_span("keep-sub", island="a.vsr").finish()
        tracer.start_span("skip", island="b").finish()
        tracer.start_span("never-finished", island="a")
        names = [entry["name"] for entry in recorder.records]
        assert names == ["keep", "keep-sub"]

    def test_finish_listener_fires_once_per_span(self):
        sim = Simulator()
        tracer = Tracer(sim)
        recorder = FlightRecorder(sim).watch_tracer(tracer)
        span = tracer.start_span("once", island="a")
        span.finish()
        span.finish()  # idempotent: no second record
        assert len(recorder.records) == 1

    def test_watch_monitor_feeds_frames(self):
        from repro.net.monitor import TrafficMonitor
        from repro.net.network import Network
        from repro.net.segment import EthernetSegment

        sim = Simulator()
        network = Network(sim)
        segment = network.create_segment(EthernetSegment, "seg")
        a, b = network.create_node("a"), network.create_node("b")
        network.attach(a, segment)
        network.attach(b, segment)
        monitor = TrafficMonitor().watch(segment)
        recorder = FlightRecorder(sim).watch_monitor(monitor)
        a.interfaces[0].broadcast("p", b"x")
        sim.run()
        assert recorder.records
        assert recorder.records[0]["kind"] == "frame"
        assert recorder.records[0]["segment"] == "seg"

    def test_merged_dumps_json_skips_quiet_recorders(self):
        sim = Simulator()
        noisy = FlightRecorder(sim, node="gw-a")
        quiet = FlightRecorder(sim, node="gw-b")
        noisy.record("span", name="x")
        noisy.trigger("node-crash")
        merged = json.loads(dumps_json({"a": noisy, "b": quiet}))
        assert list(merged) == ["a"]
        assert merged["a"][0]["reason"] == "node-crash"
