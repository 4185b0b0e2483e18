"""Tests for the per-node reactor: vectored writes, zero-copy dispatch,
continuation lifecycle, shutdown semantics and monitor conservation."""

import pytest

from repro.net.monitor import TrafficMonitor
from repro.net.reactor import VECTOR_MAX_PAYLOAD, Reactor
from repro.net.simkernel import Simulator
from repro.net.transport import PROTO_TCP, PROTO_TCPV, Connection
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry

from tests.conftest import make_host


def establish(sim, a, b, port=80, on_conn=None, vectored=False):
    """Connect a -> b; optionally flip the client connection to the
    reactor's vectored path after the handshake (so handshake bytes stay
    identical in every test)."""
    server_conns = []

    def accept(conn):
        server_conns.append(conn)
        if on_conn is not None:
            on_conn(conn)

    b.listen(port, accept)
    conn = sim.run_until_complete(a.connect(b.local_address(), port))
    conn.vectored = vectored
    return conn, server_conns


class TestVectoredWrites:
    def test_single_frame_per_cycle_is_byte_identical_to_plain_path(self, sim, net, eth):
        """A cycle that finds one pending frame must emit exactly what the
        immediate path would have: same protocol tag, same wire size."""
        monitor = TrafficMonitor(trace_enabled=True).watch(eth)
        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        c = make_host(net, "c", eth)
        d = make_host(net, "d", eth)

        plain, _ = establish(sim, a, b, port=80)
        fast, _ = establish(sim, c, d, port=81, vectored=True)
        monitor.reset()

        plain.send(b"payload-x")
        sim.run()
        plain_entries = [
            (e.protocol, e.size) for e in monitor.trace if e.protocol != "udp"
        ]
        monitor.reset()

        fast.send(b"payload-x")
        sim.run()
        fast_entries = [
            (e.protocol, e.size) for e in monitor.trace if e.protocol != "udp"
        ]
        assert fast_entries == plain_entries
        assert all(protocol == PROTO_TCP for protocol, _size in fast_entries)
        assert monitor.frames_coalesced == 0

    def test_burst_coalesces_into_one_vectored_transmission(self, sim, net, eth):
        monitor = TrafficMonitor(trace_enabled=True).watch(eth)
        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        received = []
        conn, _ = establish(
            sim, a, b,
            on_conn=lambda c: c.set_receiver(lambda _c, data: received.append(bytes(data))),
            vectored=True,
        )
        monitor.reset()

        for index in range(5):
            conn.send(bytes([index]) * 20)
        sim.run()

        assert b"".join(received) == b"".join(bytes([i]) * 20 for i in range(5))
        tcpv = [e for e in monitor.trace if e.protocol == PROTO_TCPV]
        assert len(tcpv) == 1
        assert monitor.frames_coalesced == 5
        assert a.reactor.vector_frames == 1
        assert a.reactor.frames_coalesced == 5

    def test_burst_longer_than_vector_window_splits_into_batches(self, sim, net, eth):
        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        received = []
        conn, _ = establish(
            sim, a, b,
            on_conn=lambda c: c.set_receiver(lambda _c, data: received.append(bytes(data))),
            vectored=True,
        )
        blob = bytes(range(256)) * 512  # 128 KiB > one 64 KiB vector window
        conn.send(blob)
        sim.run()
        assert b"".join(received) == blob
        assert a.reactor.vector_frames >= 2

    def test_split_respects_vector_max_payload(self):
        frames = [(PROTO_TCP, b"x" * 30000)] * 5  # 150000 bytes total
        batches = Reactor._split(frames)
        assert [frame for batch in batches for frame in batch] == frames
        assert all(
            sum(len(payload) for _proto, payload in batch) <= VECTOR_MAX_PAYLOAD
            for batch in batches
        )
        assert len(batches) == 3

    def test_oversize_single_frame_still_ships_alone(self):
        big = (PROTO_TCP, b"y" * (VECTOR_MAX_PAYLOAD + 1))
        batches = Reactor._split([big, (PROTO_TCP, b"z")])
        assert batches[0] == [big]

    def test_zero_copy_connection_receives_memoryviews(self, sim, net, eth):
        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        chunks = []

        def accept(conn):
            conn.zero_copy = True
            conn.set_receiver(lambda _c, data: chunks.append(data))

        conn, _ = establish(sim, a, b, on_conn=accept, vectored=True)
        conn.send(b"one")
        conn.send(b"two")
        sim.run()
        assert [bytes(chunk) for chunk in chunks] == [b"one", b"two"]
        assert all(isinstance(chunk, memoryview) for chunk in chunks)

    def test_flush_failure_aborts_connection_not_reactor(self, sim, net, eth):
        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        conn, _ = establish(sim, a, b, vectored=True)
        conn.send(b"doomed")
        a.node.crash()  # flush will raise; reactor must survive
        sim.run()
        assert conn.state == Connection.CLOSED
        a.node.restart()
        # The reactor still works for new connections afterwards.
        c = make_host(net, "c", eth)
        conn2, _ = establish(sim, a, c, port=90, vectored=True)
        conn2.send(b"alive")
        sim.run()
        assert conn2.bytes_sent == 5


class TestMonitorConservation:
    def _run_traffic(self, vectored):
        """Same traffic twice; returns (monitor, segment, stack)."""
        sim = Simulator()
        from repro.net.network import Network
        from repro.net.segment import EthernetSegment

        net = Network(sim)
        eth = net.create_segment(EthernetSegment, "eth0")
        monitor = TrafficMonitor().watch(eth)
        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        conn, _ = establish(sim, a, b, vectored=vectored)
        for index in range(8):
            conn.send(b"m" * (10 + index))
        sim.run()
        return monitor, eth, a

    def test_per_protocol_tallies_identical_vectored_or_not(self):
        plain_monitor, _, _ = self._run_traffic(vectored=False)
        fast_monitor, _, _ = self._run_traffic(vectored=True)
        plain = {p: (s.frames, s.bytes) for p, s in plain_monitor.stats.items()}
        fast = {p: (s.frames, s.bytes) for p, s in fast_monitor.stats.items()}
        assert fast == plain
        assert plain_monitor.frames_coalesced == 0
        assert fast_monitor.frames_coalesced == 8

    def test_constituents_reconcile_with_segment_transmissions(self):
        monitor, eth, _ = self._run_traffic(vectored=True)
        by_protocol = monitor.per_segment[eth.name]
        seg_frames = sum(stats.frames for stats in by_protocol.values())
        extra = monitor.coalesced_extra_per_segment[eth.name]
        assert extra == monitor.frames_coalesced - 1  # 8 parts on 1 wire frame
        assert seg_frames - extra == eth.frames_sent

    def test_reset_clears_coalescing_accumulators(self):
        monitor, _, _ = self._run_traffic(vectored=True)
        assert monitor.frames_coalesced
        monitor.reset()
        fresh = TrafficMonitor()
        assert monitor.frames_coalesced == fresh.frames_coalesced == 0
        assert monitor.coalesced_extra_per_segment == {}
        assert monitor.coalesced_dropped_extra_per_segment == {}

    def test_frames_coalesced_surfaces_in_obs_snapshot(self):
        # The registry reads the sending reactor's count, which agrees
        # with the wire monitor's constituent tally.
        monitor, _, stack = self._run_traffic(vectored=True)
        metrics = MetricsRegistry()
        metrics.track("reactor.a", stack.reactor, "counter", Reactor.COUNTERS)
        assert metrics.snapshot()["reactor.a.frames_coalesced"] == 8
        assert monitor.frames_coalesced == 8


class TestContinuations:
    def test_park_finish_cancel_lifecycle(self, sim, net, eth):
        stack = make_host(net, "a", eth)
        reactor = stack.reactor
        cancelled = []
        first = reactor.park("key", on_cancel=lambda: cancelled.append("first"))
        second = reactor.park("key", on_cancel=lambda: cancelled.append("second"))
        assert reactor.parked == 2
        first.finish()
        assert reactor.parked == 1
        assert reactor.cancel_key("key") == 1
        assert cancelled == ["second"]
        assert second.cancelled and not first.cancelled
        assert reactor.parked == 0

    def test_cancel_is_idempotent_and_finish_wins(self, sim, net, eth):
        reactor = make_host(net, "a", eth).reactor
        hits = []
        continuation = reactor.park("k", on_cancel=lambda: hits.append(1))
        continuation.finish()
        continuation.cancel()
        continuation.cancel()
        assert hits == []  # finished first: the cancel hook never runs

    def test_cancel_all_covers_every_key(self, sim, net, eth):
        reactor = make_host(net, "a", eth).reactor
        for key in ("x", "y", "z"):
            reactor.park(key)
            reactor.park(key)
        assert reactor.cancel_all() == 6
        assert reactor.parked == 0
        assert reactor.continuations_cancelled == 6

    def test_registry_names_are_stable(self, sim, net, eth):
        # A gateway's reactor reaches snapshots and telemetry reports as
        # these names; dashboards rely on them.
        from repro.core.framework import MetaMiddleware

        obs = Observability(sim)
        MetaMiddleware(net, eth, obs=obs).add_island("a", None)
        snapshot = obs.metrics.snapshot()
        assert [name for name in snapshot if name.startswith("reactor.a.")] == [
            "reactor.a.continuations_cancelled",
            "reactor.a.continuations_parked",
            "reactor.a.cycles",
            "reactor.a.flushes",
            "reactor.a.frames_coalesced",
            "reactor.a.parked",
            "reactor.a.vector_frames",
        ]


class TestShutdownSemantics:
    def test_stack_shutdown_cancels_parked_continuations(self, sim, net, eth):
        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        conn, _ = establish(sim, a, b)
        cancelled = []
        a.reactor.park(conn, on_cancel=lambda: cancelled.append(conn))
        a.shutdown()
        sim.run()
        assert cancelled == [conn]
        assert a.reactor.parked == 0
        assert a.open_connections == 0

    def test_shutdown_fails_pending_connects(self, sim, net, eth):
        from repro.errors import TransportError

        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        b.listen(80, lambda conn: None)
        b.node.crash()  # SYN will go unanswered
        future = a.connect(b.local_address(), 80)
        a.shutdown()
        with pytest.raises(TransportError, match="shut down"):
            sim.run_until_complete(future)

    def test_shutdown_discards_queued_vectored_frames_cleanly(self, sim, net, eth):
        monitor = TrafficMonitor(trace_enabled=True).watch(eth)
        a = make_host(net, "a", eth)
        b = make_host(net, "b", eth)
        conn, _ = establish(sim, a, b, vectored=True)
        monitor.reset()
        conn.send(b"never flushed")
        a.shutdown()  # aborts the connection before the cycle flushes it
        sim.run()
        assert conn.state == Connection.CLOSED
        assert not any(e.protocol == PROTO_TCPV for e in monitor.trace)

    def test_determinism_identical_runs_identical_stats(self):
        def run():
            sim = Simulator()
            from repro.net.network import Network
            from repro.net.segment import EthernetSegment

            net = Network(sim)
            eth = net.create_segment(EthernetSegment, "eth0")
            a = make_host(net, "a", eth)
            b = make_host(net, "b", eth)
            conn, _ = establish(sim, a, b, vectored=True)
            for index in range(6):
                conn.send(bytes([index]) * 64)
            sim.run()
            return [getattr(a.reactor, name) for name in (*Reactor.COUNTERS, "parked")]

        assert run() == run()
