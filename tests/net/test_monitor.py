"""Tests for traffic accounting."""

from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator


def build():
    sim = Simulator()
    net = Network(sim)
    segment = net.create_segment(EthernetSegment, "seg")
    a, b = net.create_node("a"), net.create_node("b")
    net.attach(a, segment)
    net.attach(b, segment)
    return sim, segment, a, b


class TestCounters:
    def test_frames_and_bytes_counted_per_protocol(self):
        sim, segment, a, b = build()
        monitor = TrafficMonitor().watch(segment)
        a.interfaces[0].broadcast("alpha", b"x" * 100)
        a.interfaces[0].broadcast("alpha", b"x" * 100)
        a.interfaces[0].broadcast("beta", b"y" * 50)
        sim.run()
        assert monitor.stats["alpha"].frames == 2
        assert monitor.stats["beta"].frames == 1
        assert monitor.stats["alpha"].bytes == 2 * (100 + segment.header_overhead)
        assert monitor.total_frames == 3

    def test_per_segment_breakdown(self):
        sim, segment, a, b = build()
        net = Network(sim)
        other = net.create_segment(EthernetSegment, "other")
        node = net.create_node("c")
        net.attach(node, other)
        monitor = TrafficMonitor().watch(segment, other)
        a.interfaces[0].broadcast("p", b"1234")
        node.interfaces[0].broadcast("p", b"12")
        sim.run()
        assert set(monitor.per_segment) == {"seg", "other"}
        assert monitor.per_segment["seg"]["p"].frames == 1

    def test_dropped_frames_counted_separately(self):
        sim, segment, a, b = build()
        monitor = TrafficMonitor().watch(segment)
        segment.loss_model = lambda frame: True
        a.interfaces[0].broadcast("p", b"lost")
        sim.run()
        assert monitor.stats["p"].frames == 1
        assert monitor.stats["p"].dropped_frames == 1

    def test_trace_records_transmissions(self):
        sim, segment, a, b = build()
        monitor = TrafficMonitor(trace_enabled=True).watch(segment)
        a.interfaces[0].broadcast("p", b"abc", note="hello")
        sim.run()
        assert len(monitor.trace) == 1
        entry = monitor.trace[0]
        assert entry.protocol == "p"
        assert entry.segment == "seg"
        assert entry.note == "hello"

    def test_trace_respects_limit(self):
        sim, segment, a, b = build()
        monitor = TrafficMonitor(trace_enabled=True, trace_limit=3).watch(segment)
        for _ in range(10):
            a.interfaces[0].broadcast("p", b"x")
        sim.run()
        assert len(monitor.trace) == 3

    def test_trace_truncation_is_counted(self):
        sim, segment, a, b = build()
        monitor = TrafficMonitor(trace_enabled=True, trace_limit=3).watch(segment)
        for _ in range(10):
            a.interfaces[0].broadcast("p", b"x")
        sim.run()
        assert monitor.trace_dropped == 7
        # Truncation is an explicit field, not a sentinel row: the stats
        # stay pure protocol tallies and trace_dropped carries the count.
        assert set(monitor.stats) == {"p"}
        # Counting only applies to the trace: frame/byte tallies are complete.
        assert monitor.stats["p"].frames == 10

    def test_trace_dropped_stays_zero_within_limit(self):
        sim, segment, a, b = build()
        monitor = TrafficMonitor(trace_enabled=True, trace_limit=3).watch(segment)
        a.interfaces[0].broadcast("p", b"x")
        sim.run()
        assert monitor.trace_dropped == 0
        assert set(monitor.stats) == {"p"}

    def test_reset_clears_everything(self):
        sim, segment, a, b = build()
        monitor = TrafficMonitor(trace_enabled=True, trace_limit=1).watch(segment)
        a.interfaces[0].broadcast("p", b"x")
        a.interfaces[0].broadcast("p", b"x")
        sim.run()
        assert monitor.trace_dropped == 1
        monitor.reset()
        assert monitor.total_frames == 0
        assert monitor.trace == []
        assert monitor.trace_dropped == 0
        # Reset restores the just-constructed state (module docstring
        # contract): same public accumulators as a fresh monitor.
        fresh = TrafficMonitor(trace_enabled=True, trace_limit=1)
        assert (monitor.stats, monitor.per_segment, monitor.trace, monitor.trace_dropped) == (
            fresh.stats, fresh.per_segment, fresh.trace, fresh.trace_dropped
        )
