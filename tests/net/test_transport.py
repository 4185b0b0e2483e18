"""Tests for the UDP/TCP-like transport layer."""

import gc
import weakref

import pytest

from repro.errors import ConnectionClosedError, TransportError
from repro.net.addressing import NodeAddress
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.net.transport import Connection, TransportStack

from tests.conftest import make_host


class TestDatagrams:
    def test_unicast_datagram(self, sim, net, eth, two_hosts):
        a, b = two_hosts
        received = []
        sock_b = b.udp_socket(9000)
        sock_b.on_datagram(lambda src, port, data: received.append((str(src), port, data)))
        sock_a = a.udp_socket(9001)
        sock_a.sendto(b.local_address(), 9000, b"ping")
        sim.run()
        assert received == [("eth0/1", 9001, b"ping")]

    def test_broadcast_reaches_all_bound_sockets(self, sim, net, eth):
        hosts = [make_host(net, f"h{i}", eth) for i in range(4)]
        received = {i: [] for i in range(4)}
        for index, host in enumerate(hosts[1:], start=1):
            sock = host.udp_socket(5000)
            sock.on_datagram(lambda s, p, d, i=index: received[i].append(d))
        sender = hosts[0].udp_socket(5000)
        sender.broadcast(eth, 5000, b"hello all")
        sim.run()
        assert all(received[i] == [b"hello all"] for i in (1, 2, 3))

    def test_datagram_to_unbound_port_is_dropped(self, sim, two_hosts):
        a, b = two_hosts
        sock = a.udp_socket()
        sock.sendto(b.local_address(), 7777, b"void")
        sim.run()  # silently dropped; nothing to assert but no crash

    def test_backlog_replayed_when_handler_installed_late(self, sim, two_hosts):
        a, b = two_hosts
        sock_b = b.udp_socket(9000)
        a.udp_socket().sendto(b.local_address(), 9000, b"early")
        sim.run()
        received = []
        sock_b.on_datagram(lambda s, p, d: received.append(d))
        assert received == [b"early"]

    def test_closed_socket_rejects_send_and_drops_rx(self, sim, two_hosts):
        a, b = two_hosts
        sock = a.udp_socket(9000)
        sock.close()
        with pytest.raises(ConnectionClosedError):
            sock.sendto(b.local_address(), 1, b"x")
        # Port is released: rebinding works.
        a.udp_socket(9000)

    def test_duplicate_bind_rejected(self, two_hosts):
        a, _ = two_hosts
        a.udp_socket(9000)
        with pytest.raises(TransportError):
            a.udp_socket(9000)


class TestConnections:
    def connect(self, sim, a, b, port=80, on_conn=None):
        b.listen(port, on_conn or (lambda conn: None))
        return sim.run_until_complete(a.connect(b.local_address(), port))

    def test_connect_and_echo(self, sim, two_hosts):
        a, b = two_hosts
        echoed = []

        def on_conn(conn):
            conn.set_receiver(lambda c, data: c.send(data.upper()))

        conn = self.connect(sim, a, b, on_conn=on_conn)
        conn.set_receiver(lambda c, data: echoed.append(data))
        conn.send(b"hello")
        sim.run()
        assert b"".join(echoed) == b"HELLO"

    def test_connection_refused(self, sim, two_hosts):
        a, b = two_hosts
        future = a.connect(b.local_address(), 4242)  # nobody listening
        with pytest.raises(TransportError, match="refused"):
            sim.run_until_complete(future)

    def test_large_transfer_is_segmented_and_reassembled(self, sim, eth, two_hosts):
        a, b = two_hosts
        blob = bytes(range(256)) * 64  # 16 KiB, > 10 MTUs
        received = []

        def on_conn(conn):
            conn.set_receiver(lambda c, data: received.append(data))

        conn = self.connect(sim, a, b, on_conn=on_conn)
        conn.send(blob)
        sim.run()
        assert b"".join(received) == blob
        # Segmentation actually happened.
        assert len(received) > 1
        assert all(len(chunk) <= eth.mtu for chunk in received)

    def test_ordered_delivery(self, sim, two_hosts):
        a, b = two_hosts
        received = []

        def on_conn(conn):
            conn.set_receiver(lambda c, data: received.append(data))

        conn = self.connect(sim, a, b, on_conn=on_conn)
        for index in range(20):
            conn.send(bytes([index]) * 10)
        sim.run()
        combined = b"".join(received)
        expected = b"".join(bytes([i]) * 10 for i in range(20))
        assert combined == expected

    def test_close_handshake_frees_both_ends(self, sim, two_hosts):
        a, b = two_hosts
        server_conns = []
        conn = self.connect(sim, a, b, on_conn=server_conns.append)
        sim.run()
        assert a.open_connections == 1
        assert b.open_connections == 1
        conn.close()
        sim.run()
        assert conn.state == Connection.CLOSED
        assert a.open_connections == 0
        assert b.open_connections == 0

    def test_closed_connection_releases_its_handlers(self, sim, two_hosts):
        """Handlers that hold their own connection form a cycle; a closed
        connection drops them, so reference counting frees the lot."""
        a, b = two_hosts
        conn = self.connect(sim, a, b)
        state = {"conn": conn}
        handler = lambda c, data: state  # noqa: E731 - holds the connection
        conn.set_receiver(handler)
        conn.on_close(lambda c: state)
        held = weakref.ref(handler)
        del handler
        gc.disable()
        try:
            conn.close()
            sim.run()
            assert conn.state == Connection.CLOSED
            assert held() is None
        finally:
            gc.enable()

    def test_connection_keys_use_the_networks_address_object(self, sim, two_hosts):
        """A connect to an equal but distinct address object is keyed by the
        network's own one, which the peer's frames carry back."""
        a, b = two_hosts
        address = b.local_address()
        b.listen(80, lambda conn: None)
        conn = sim.run_until_complete(a.connect(NodeAddress(address.segment, address.host), 80))
        assert conn.remote is address
        assert conn.key == (address, 80, conn.local_port)

    def test_send_after_close_raises(self, sim, two_hosts):
        a, b = two_hosts
        conn = self.connect(sim, a, b)
        conn.close()
        sim.run()
        with pytest.raises(ConnectionClosedError):
            conn.send(b"too late")

    def test_handshake_costs_round_trips(self, sim, two_hosts):
        """The 'TCP is heavy' premise: just connecting takes 3 frames of
        virtual time before any payload."""
        a, b = two_hosts
        t0 = sim.now
        conn = self.connect(sim, a, b)
        assert sim.now > t0
        assert conn.frames_sent >= 2  # SYN + ACK

    def test_loopback_same_node(self, sim, net, eth):
        host = make_host(net, "solo", eth)
        received = []

        def on_conn(conn):
            conn.set_receiver(lambda c, data: received.append(data))

        host.listen(80, on_conn)
        conn = sim.run_until_complete(host.connect(host.local_address(), 80))
        conn.send(b"to myself")
        sim.run()
        assert received == [b"to myself"]

    def test_byte_accounting(self, sim, two_hosts):
        a, b = two_hosts
        server_conns = []
        conn = self.connect(sim, a, b, on_conn=server_conns.append)
        conn.send(b"x" * 1000)
        sim.run()
        assert conn.bytes_sent == 1000
        assert server_conns[0].bytes_received == 1000


class TestMultiHoming:
    def test_gateway_relays_between_segments_at_app_layer(self, sim, net):
        """The paper's topology: islands only talk through a multi-homed
        gateway doing application-layer forwarding."""
        eth_a = net.create_segment(EthernetSegment, "island-a")
        eth_b = net.create_segment(EthernetSegment, "island-b")
        host_a = make_host(net, "a", eth_a)
        host_b = make_host(net, "b", eth_b)
        gw_node = net.create_node("gw")
        net.attach(gw_node, eth_a)
        net.attach(gw_node, eth_b)
        gw = TransportStack(gw_node, net)

        received_b = []

        def b_on_conn(conn):
            conn.set_receiver(lambda c, data: received_b.append(data))

        host_b.listen(90, b_on_conn)

        def gw_on_conn(conn):
            def relay(c, data):
                gw.connect(host_b.local_address(), 90).add_done_callback(
                    lambda f: f.result().send(data)
                )

            conn.set_receiver(relay)

        gw.listen(80, gw_on_conn)

        gw_address_on_a = gw_node.interface_on(eth_a).node_address
        conn = sim.run_until_complete(host_a.connect(gw_address_on_a, 80))
        conn.send(b"across islands")
        sim.run()
        assert b"".join(received_b) == b"across islands"

    def test_hosts_on_different_segments_cannot_talk_directly(self, sim, net):
        eth_a = net.create_segment(EthernetSegment, "seg-a")
        eth_b = net.create_segment(EthernetSegment, "seg-b")
        host_a = make_host(net, "a", eth_a)
        host_b = make_host(net, "b", eth_b)
        host_b.listen(80, lambda conn: None)
        future = host_a.connect(host_b.local_address(), 80)
        with pytest.raises(TransportError):
            sim.run_until_complete(future, timeout=5.0)


class TestPartitions:
    def test_connect_to_silent_peer_times_out(self, sim, two_hosts):
        a, b = two_hosts
        b.listen(80, lambda conn: None)
        # Partition b: its interface stops receiving.
        b.node.interfaces[0].up = False
        future = a.connect(b.local_address(), 80, timeout=10.0)
        t0 = sim.now
        with pytest.raises(TransportError, match="timed out"):
            sim.run_until_complete(future)
        assert sim.now - t0 >= 10.0

    def test_successful_connect_cancels_the_timer(self, sim, two_hosts):
        a, b = two_hosts
        b.listen(80, lambda conn: None)
        conn = sim.run_until_complete(a.connect(b.local_address(), 80))
        sim.run_for(60.0)  # long past any SYN timeout
        assert conn.state == Connection.ESTABLISHED

    def test_bridged_call_to_partitioned_island_fails_cleanly(self, sim):
        """Whole-stack version: a partitioned island produces a clean
        error at the caller, not a hung simulation."""
        from repro.apps.home import build_smart_home

        home = build_smart_home()
        home.connect()
        for iface in home.islands["havi"].node.interfaces:
            iface.up = False
        with pytest.raises(Exception):
            home.sim.run_until_complete(
                home.islands["jini"].gateway.invoke("Digital_TV_tuner", "get_channel", []),
                timeout=300.0,
            )
