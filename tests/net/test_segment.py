"""Tests for broadcast media models."""

import pytest

from repro.errors import NetworkError
from repro.net.addressing import HwAddress
from repro.net.network import Network
from repro.net.node import Interface
from repro.net.segment import (
    EthernetSegment,
    IEEE1394Segment,
    PowerlineSegment,
    SerialLink,
)
from repro.net.simkernel import Simulator


def build(segment_cls, n_nodes=2, **kwargs):
    sim = Simulator()
    net = Network(sim)
    segment = net.create_segment(segment_cls, "seg", **kwargs)
    nodes = []
    for index in range(n_nodes):
        node = net.create_node(f"n{index}")
        net.attach(node, segment)
        nodes.append(node)
    return sim, net, segment, nodes


class TestTransmission:
    def test_unicast_reaches_only_addressee(self):
        sim, net, segment, (a, b) = build(EthernetSegment, 2)
        seen = []
        b.register_protocol("test", lambda iface, frame: seen.append(frame.payload))
        a.interfaces[0].send(b.interfaces[0].hw_address, "test", b"hello")
        sim.run()
        assert seen == [b"hello"]

    def test_unicast_not_delivered_to_third_party(self):
        sim, net, segment, (a, b, c) = build(EthernetSegment, 3)
        seen_c = []
        c.register_protocol("test", lambda iface, frame: seen_c.append(frame))
        a.interfaces[0].send(b.interfaces[0].hw_address, "test", b"private")
        sim.run()
        assert seen_c == []

    def test_broadcast_reaches_everyone_but_sender(self):
        sim, net, segment, nodes = build(EthernetSegment, 4)
        seen = {node.name: [] for node in nodes}
        for node in nodes:
            node.register_protocol(
                "test", lambda iface, frame, n=node.name: seen[n].append(frame.payload)
            )
        nodes[0].interfaces[0].broadcast("test", b"all")
        sim.run()
        assert seen["n0"] == []
        assert all(seen[f"n{i}"] == [b"all"] for i in (1, 2, 3))

    def test_promiscuous_interface_sees_foreign_unicast(self):
        sim, net, segment, (a, b, c) = build(EthernetSegment, 3)
        seen_c = []
        c.interfaces[0].promiscuous = True
        c.register_protocol("test", lambda iface, frame: seen_c.append(frame.payload))
        a.interfaces[0].send(b.interfaces[0].hw_address, "test", b"sniffed")
        sim.run()
        assert seen_c == [b"sniffed"]

    def test_down_interface_receives_nothing(self):
        sim, net, segment, (a, b) = build(EthernetSegment, 2)
        seen = []
        b.register_protocol("test", lambda iface, frame: seen.append(frame))
        b.interfaces[0].up = False
        a.interfaces[0].broadcast("test", b"x")
        sim.run()
        assert seen == []

    def test_down_interface_cannot_send(self):
        sim, net, segment, (a, b) = build(EthernetSegment, 2)
        a.interfaces[0].up = False
        with pytest.raises(NetworkError):
            a.interfaces[0].broadcast("test", b"x")


class TestArrivalScheduling:
    """Arrivals are scheduled only for receivers that take the frame; the
    per-receiver delivery counters are unchanged by that."""

    N = 5

    def test_unicast_schedules_one_arrival(self):
        sim, net, segment, nodes = build(EthernetSegment, self.N)
        nodes[0].interfaces[0].send(nodes[3].interfaces[0].hw_address, "t", b"x")
        assert sim.pending_events == 1
        assert segment.frames_delivered == segment.delivery_opportunities == self.N - 1

    def test_broadcast_schedules_one_arrival_per_other_interface(self):
        sim, net, segment, nodes = build(EthernetSegment, self.N)
        nodes[0].interfaces[0].broadcast("t", b"x")
        assert sim.pending_events == self.N - 1

    def test_promiscuous_interface_gets_an_arrival_for_foreign_unicast(self):
        sim, net, segment, nodes = build(EthernetSegment, self.N)
        sniffer = nodes[4]
        sniffer.interfaces[0].promiscuous = True
        seen = []
        sniffer.register_protocol("t", lambda iface, frame: seen.append(frame.payload))
        nodes[0].interfaces[0].send(nodes[1].interfaces[0].hw_address, "t", b"sniffed")
        assert sim.pending_events == 2
        sim.run()
        assert seen == [b"sniffed"]

    def test_frame_to_absent_address_schedules_nothing(self):
        sim, net, segment, nodes = build(EthernetSegment, self.N)
        nodes[0].interfaces[0].send(HwAddress(0x7777), "t", b"x")
        assert sim.pending_events == 0
        assert segment.frames_delivered == segment.delivery_opportunities == self.N - 1

    def test_addressee_down_between_transmit_and_arrival_drops_frame(self):
        sim, net, segment, (a, b) = build(EthernetSegment, 2)
        seen = []
        b.register_protocol("t", lambda iface, frame: seen.append(frame))
        a.interfaces[0].send(b.interfaces[0].hw_address, "t", b"in flight")
        assert sim.pending_events == 1
        b.crash()
        sim.run()
        assert seen == []
        # Counted as delivered: the frame left the wire towards a reachable
        # receiver, which then lost it on arrival.
        assert segment.frames_delivered == 1

    # Fixed traffic for the counter tests: (sender, destination) with None
    # for broadcast and 9 for an address no interface has.
    TRAFFIC = [(0, 1), (0, None), (1, 3), (2, None), (3, 2), (4, 0), (1, 9), (4, None)]

    def drive(self, delivery_filter=None, sniffer=None):
        sim, net, segment, nodes = build(EthernetSegment, self.N)
        segment.delivery_filter = delivery_filter
        if sniffer is not None:
            nodes[sniffer].interfaces[0].promiscuous = True
        seen = []
        for node in nodes:
            node.register_protocol(
                "t", lambda iface, frame, n=node.name: seen.append((n, frame.payload))
            )
        for k, (src, dst) in enumerate(self.TRAFFIC):
            iface = nodes[src].interfaces[0]
            payload = bytes([k])
            if dst is None:
                iface.broadcast("t", payload)
            elif dst == 9:
                iface.send(HwAddress(0x7777), "t", payload)
            else:
                iface.send(nodes[dst].interfaces[0].hw_address, "t", payload)
        sim.run()
        return segment, seen

    def counters(self, segment):
        return (
            segment.delivery_opportunities,
            segment.frames_delivered,
            segment.frames_blocked,
        )

    def test_counters_conserve_without_filter(self):
        segment, seen = self.drive()
        opportunities, delivered, blocked = self.counters(segment)
        assert delivered + blocked == opportunities
        # Values of the one-arrival-per-receiver kernel for this traffic.
        assert (opportunities, delivered, blocked) == (32, 32, 0)
        # 4 unicasts to present addressees + 3 broadcasts x 4 receivers.
        assert len(seen) == 4 + 3 * 4

    def test_counters_conserve_under_partition(self):
        side = {"n0": 0, "n1": 0, "n2": 1, "n3": 1, "n4": 1}

        def same_side(sender, receiver):
            return side[sender.node.name] == side[receiver.node.name]

        segment, seen = self.drive(same_side)
        opportunities, delivered, blocked = self.counters(segment)
        assert delivered + blocked == opportunities
        assert (opportunities, delivered, blocked) == (32, 12, 20)
        # Unicasts n0->n1 and n3->n2 cross no cut; broadcasts reach only
        # their own side: n0's 1 peer, n2's 2 and n4's 2.
        assert sorted(seen) == sorted(
            [("n1", b"\x00"), ("n1", b"\x01"), ("n2", b"\x04"),
             ("n3", b"\x03"), ("n4", b"\x03"), ("n2", b"\x07"), ("n3", b"\x07")]
        )

    def test_counters_conserve_with_a_sniffer(self):
        segment, seen = self.drive(sniffer=4)
        opportunities, delivered, blocked = self.counters(segment)
        assert delivered + blocked == opportunities == 32
        # n4 hears the four unicasts it is not party to (n0->n1, n1->n3,
        # n3->n2, n1->absent) besides the other nodes' two broadcasts.
        assert sorted(p for n, p in seen if n == "n4") == [
            b"\x00", b"\x01", b"\x02", b"\x03", b"\x04", b"\x06"
        ]

    @pytest.mark.parametrize("kind", ["unicast", "absent", "to-self", "broadcast"])
    def test_each_frame_conserves_counters(self, kind):
        sim, net, segment, nodes = build(EthernetSegment, self.N)
        sender = nodes[0].interfaces[0]
        if kind == "broadcast":
            sender.broadcast("t", b"x")
        else:
            hw = {"unicast": nodes[2].interfaces[0].hw_address,
                  "absent": HwAddress(0x7777), "to-self": sender.hw_address}[kind]
            sender.send(hw, "t", b"x")
        assert segment.frames_delivered + segment.frames_blocked == (
            segment.delivery_opportunities
        ) == self.N - 1
        assert sim.pending_events == {"unicast": 1, "broadcast": self.N - 1}.get(kind, 0)

    def test_promiscuous_switched_after_attach_takes_effect(self):
        sim, net, segment, nodes = build(EthernetSegment, 3)
        a, b, c = (node.interfaces[0] for node in nodes)
        seen = []
        nodes[2].register_protocol("t", lambda iface, frame: seen.append(frame.payload))
        a.send(b.hw_address, "t", b"before")
        sim.run()
        c.promiscuous = True
        a.send(b.hw_address, "t", b"during")
        sim.run()
        c.promiscuous = False
        a.send(b.hw_address, "t", b"after")
        sim.run()
        assert seen == [b"during"]

    def test_broadcast_arrives_in_attach_order(self):
        sim, net, segment, nodes = build(EthernetSegment, self.N)
        order = []
        for node in nodes:
            node.register_protocol("t", lambda iface, frame, n=node.name: order.append(n))
        nodes[2].interfaces[0].broadcast("t", b"x")
        sim.run()
        assert order == ["n0", "n1", "n3", "n4"]


def transmission_time(segment_cls, payload):
    """Virtual seconds one frame of ``payload`` holds an idle medium: the
    end time ``Segment.transmit`` returns for it at time 0."""
    _, _, _, (a, _) = build(segment_cls, 2)
    return a.interfaces[0].broadcast("t", payload)


class TestTiming:
    def test_transmission_time_scales_with_size_and_bandwidth(self):
        _, _, segment, _ = build(EthernetSegment, 2)
        small = transmission_time(EthernetSegment, b"x" * 100)
        large = transmission_time(EthernetSegment, b"x" * 1000)
        assert large > small
        expected = (1000 + segment.header_overhead) * 8 / segment.bandwidth_bps
        assert large == pytest.approx(expected)

    def test_busy_medium_serialises_transmissions(self):
        sim, net, segment, (a, b) = build(EthernetSegment, 2)
        arrivals = []
        b.register_protocol("t", lambda iface, frame: arrivals.append(sim.now))
        # Two 1500-byte frames sent at the same instant must arrive one
        # transmission-time apart.
        a.interfaces[0].broadcast("t", b"x" * 1500)
        a.interfaces[0].broadcast("t", b"x" * 1500)
        sim.run()
        assert len(arrivals) == 2
        gap = arrivals[1] - arrivals[0]
        assert gap == pytest.approx(transmission_time(EthernetSegment, b"x" * 1500))

    def test_powerline_is_orders_of_magnitude_slower_than_ethernet(self):
        powerline = transmission_time(PowerlineSegment, b"\x66\x00")
        ethernet = transmission_time(EthernetSegment, b"\x66\x00")
        assert powerline > 1000 * ethernet
        # An X10 frame takes on the order of a third of a second.
        assert 0.1 < powerline < 1.0

    def test_ieee1394_is_fastest(self):
        payload = b"x" * 1000
        assert transmission_time(IEEE1394Segment, payload) < transmission_time(
            EthernetSegment, payload
        )


class TestTopologyRules:
    def test_serial_link_limited_to_two_endpoints(self):
        sim = Simulator()
        net = Network(sim)
        link = net.create_segment(SerialLink, "ser")
        for index in range(2):
            node = net.create_node(f"n{index}")
            net.attach(node, link)
        third = net.create_node("n2")
        with pytest.raises(NetworkError):
            net.attach(third, link)

    def test_double_attach_rejected(self):
        sim, net, segment, (a, b) = build(EthernetSegment, 2)
        with pytest.raises(NetworkError):
            segment.attach(a.interfaces[0])

    def test_duplicate_hardware_address_rejected(self):
        sim, net, segment, (a, b) = build(EthernetSegment, 2)
        twin = Interface(b, segment, a.interfaces[0].hw_address, b.interfaces[0].node_address)
        with pytest.raises(NetworkError):
            segment.attach(twin)

    def test_zero_bandwidth_rejected(self):
        sim = Simulator()
        with pytest.raises(NetworkError):
            EthernetSegment(sim, "bad", bandwidth_bps=0)


class TestLossModel:
    def test_loss_model_drops_frames(self):
        sim, net, segment, (a, b) = build(PowerlineSegment, 2)
        seen = []
        b.register_protocol("t", lambda iface, frame: seen.append(frame))
        segment.loss_model = lambda frame: True  # drop everything
        a.interfaces[0].broadcast("t", b"\x01\x02")
        sim.run()
        assert seen == []
        assert segment.frames_sent == 1  # it still occupied the wire

    def test_deterministic_seeded_loss(self):
        import random

        rng = random.Random(42)
        sim, net, segment, (a, b) = build(PowerlineSegment, 2)
        seen = []
        b.register_protocol("t", lambda iface, frame: seen.append(frame))
        segment.loss_model = lambda frame: rng.random() < 0.5
        for _ in range(20):
            a.interfaces[0].broadcast("t", b"\x01\x02")
        sim.run()
        assert 0 < len(seen) < 20  # some lost, some delivered
