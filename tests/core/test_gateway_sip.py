"""Tests for the SIP gateway binding — the pluggable-protocol claim."""

import pytest

from repro.errors import RemoteServiceError
from repro.core.framework import MetaMiddleware
from repro.core.gateway_sip import SipGatewayProtocol
from repro.core.interface import simple_interface
from repro.net.segment import EthernetSegment
from repro.soap import envelope

from tests.core.toys import Lamp, Thermometer, ToyPcm
from tests.router_views import remote_topics

LAMP_IFACE = simple_interface(
    "Lamp", {"set_level": ("int", "->int"), "get_level": ("->int",), "fail": ()}
)
THERMO_IFACE = simple_interface("Thermo", {"read": ("->double",)})


@pytest.fixture
def sip_framework(sim, net):
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone)
    lamp = Lamp()

    def protocol_factory(stack):
        return SipGatewayProtocol(stack)

    island_a = mm.add_island(
        "a", None, lambda i: ToyPcm(i.gateway, {"Lamp": (LAMP_IFACE, lamp)}),
        protocol_factory=protocol_factory,
    )
    island_b = mm.add_island(
        "b", None, lambda i: ToyPcm(i.gateway, {"Thermo": (THERMO_IFACE, Thermometer())}),
        protocol_factory=protocol_factory,
    )
    sim.run_until_complete(mm.connect())
    return mm, island_a, island_b, lamp


class TestSipBinding:
    def test_cross_island_call(self, sim, sip_framework):
        mm, island_a, island_b, lamp = sip_framework
        assert sim.run_until_complete(island_b.gateway.invoke("Lamp", "set_level", [4])) == 4
        assert lamp.level == 4

    def test_locations_are_sip_uris(self, sim, sip_framework):
        mm, island_a, island_b, lamp = sip_framework
        catalog = sim.run_until_complete(mm.catalog())
        for document in catalog:
            assert document.location.startswith("sip:")
            assert document.context["protocol"] == "sip"

    def test_faults_cross_the_sip_gateway(self, sim, sip_framework):
        mm, island_a, island_b, lamp = sip_framework
        with pytest.raises(RemoteServiceError, match="lamp hardware fault"):
            sim.run_until_complete(island_b.gateway.invoke("Lamp", "fail", []))

    def test_events_pushed_not_polled(self, sim, sip_framework):
        mm, island_a, island_b, lamp = sip_framework
        arrivals = []
        sim.run_until_complete(
            island_b.gateway.subscribe("alerts", lambda t, p, src: arrivals.append(sim.now))
        )
        t0 = sim.now
        island_a.gateway.publish_event("alerts", {"x": 1})
        sim.run_for(5.0)
        assert len(arrivals) == 1
        # Push latency is network RTT (ms), far below any plausible poll.
        assert arrivals[0] - t0 < 0.01
        assert island_b.gateway.events.polls_performed == 0

    def test_push_beats_polling_side_by_side(self, sim, net):
        """A2's headline shape on one network: same workload, SOAP-polling
        vs SIP-push, an order of magnitude apart on event latency."""
        backbone = net.create_segment(EthernetSegment, "bb2")
        mm = MetaMiddleware(net, backbone)
        soap_a = mm.add_island("sa", None, lambda i: ToyPcm(i.gateway, {}), poll_interval=2.0)
        soap_b = mm.add_island("sb", None, lambda i: ToyPcm(i.gateway, {}), poll_interval=2.0)
        sip_a = mm.add_island(
            "pa", None, lambda i: ToyPcm(i.gateway, {}),
            protocol_factory=lambda s: SipGatewayProtocol(s),
        )
        sip_b = mm.add_island(
            "pb", None, lambda i: ToyPcm(i.gateway, {}),
            protocol_factory=lambda s: SipGatewayProtocol(s),
        )
        sim.run_until_complete(mm.connect())

        soap_latency = {}
        sip_latency = {}
        sim.run_until_complete(
            soap_b.gateway.subscribe("t1", lambda t, p, src: soap_latency.update(done=sim.now))
        )
        sim.run_until_complete(
            sip_b.gateway.subscribe("t2", lambda t, p, src: sip_latency.update(done=sim.now))
        )
        t0 = sim.now
        soap_a.gateway.publish_event("t1", 1)
        sip_a.gateway.publish_event("t2", 1)
        sim.run_for(10.0)
        assert (soap_latency["done"] - t0) > 10 * (sip_latency["done"] - t0)

    def test_topic_batch_is_one_message_per_topic(self, sim, sip_framework, monkeypatch):
        """SIP has no batched control operation: a two-topic
        ``subscribe_many`` sends one subscribe MESSAGE per topic and
        resolves to the number of gateways subscribed at."""
        mm, island_a, island_b, lamp = sip_framework
        ua = island_b.gateway.protocol.ua
        sent: list = []
        send = ua.send_message

        def record(uri, body, *args, **kwargs):
            sent.append(envelope.parse_envelope(body).args[1])
            return send(uri, body, *args, **kwargs)

        monkeypatch.setattr(ua, "send_message", record)
        arrivals = []
        assert sim.run_until_complete(
            island_b.gateway.subscribe_many(
                ["t", "u"], lambda t, p, src: arrivals.append(p)
            )
        ) == 1
        assert sent == ["t", "u"]
        assert remote_topics(island_a.gateway.events, "b") == {"t", "u"}
        island_a.gateway.publish_event("t", 1)
        island_a.gateway.publish_event("u", 2)
        sim.run_for(1.0)
        assert arrivals == [1, 2]
