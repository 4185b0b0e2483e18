"""Direct unit tests for EventRouter bookkeeping and gateway control ops,
plus the Jini remote-event wire forms that carry lookup transitions."""

import pytest

from repro.core import vsg
from repro.core.framework import MetaMiddleware
from repro.jini.events import EventRegistration, RemoteEvent
from repro.jini.lease import Lease
from repro.net.segment import EthernetSegment

from tests.core.toys import ToyPcm
from tests.router_views import poll_failures, polled, remote_islands


class TestJiniEventWireForms:
    def test_remote_event_roundtrip(self):
        event = RemoteEvent("lookup", 3, 17, {"transition": 1})
        restored = RemoteEvent.from_wire(event.to_wire())
        assert (restored.source, restored.event_id, restored.sequence) == ("lookup", 3, 17)
        assert restored.payload == {"transition": 1}

    def test_remote_event_defaults_on_partial_wire(self):
        event = RemoteEvent.from_wire({})
        assert event.source == "" and event.event_id == 0 and event.payload is None

    def test_event_registration_roundtrip(self):
        registration = EventRegistration(5, Lease(9, 120.0))
        restored = EventRegistration.from_wire(registration.to_wire())
        assert restored.event_id == 5
        assert restored.lease.lease_id == 9
        assert restored.lease.expiration == 120.0


@pytest.fixture
def gateway_pair(sim, net):
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone)
    island_a = mm.add_island("a", None, lambda i: ToyPcm(i.gateway, {}))
    island_b = mm.add_island("b", None, lambda i: ToyPcm(i.gateway, {}))
    sim.run_until_complete(mm.connect())
    return sim, island_a.gateway, island_b.gateway


class TestEventRouterUnits:
    def test_handle_subscribe_records_topics_per_island(self, gateway_pair):
        sim, gw_a, gw_b = gateway_pair
        router = gw_a.events
        assert router.handle_subscribe("b", "t1", "soap://backbone/3:8080/soap/_gateway")
        router.handle_subscribe("b", "t2", "")
        router.publish("t1", 1)
        router.publish("t2", 2)
        router.publish("t3", 3)  # nobody subscribed
        queued = router.handle_fetch("b")
        assert [e["topic"] for e in queued] == ["t1", "t2"]

    def test_fetch_drains_the_queue(self, gateway_pair):
        sim, gw_a, gw_b = gateway_pair
        router = gw_a.events
        router.handle_subscribe("b", "t", "")
        router.publish("t", "x")
        assert len(router.handle_fetch("b")) == 1
        assert router.handle_fetch("b") == []

    def test_handle_push_delivers_locally(self, gateway_pair):
        sim, gw_a, gw_b = gateway_pair
        received = []
        gw_a.events._local_subs.setdefault("t", []).append(
            lambda topic, payload, island: received.append((payload, island))
        )
        gw_a.events.handle_push(
            {"topic": "t", "payload": 5, "island": "elsewhere", "published_at": 0.0}
        )
        assert received == [(5, "elsewhere")]

    def test_sequence_numbers_monotonic(self, gateway_pair):
        sim, gw_a, gw_b = gateway_pair
        router = gw_a.events
        router.handle_subscribe("b", "t", "")
        for value in range(5):
            router.publish("t", value)
        sequences = [e["sequence"] for e in router.handle_fetch("b")]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == 5

    def test_delivery_log_cap(self, gateway_pair, monkeypatch):
        sim, gw_a, gw_b = gateway_pair
        router = gw_a.events
        monkeypatch.setattr(vsg, "DELIVERY_LOG_LIMIT", 3)
        router._local_subs.setdefault("t", []).append(lambda *a: None)
        for value in range(10):
            router.publish("t", value)
        assert len(router.delivery_log) == 3

    def test_delivery_log_dropped_counts_entries_past_the_cap(self, gateway_pair, monkeypatch):
        sim, gw_a, gw_b = gateway_pair
        router = gw_a.events
        monkeypatch.setattr(vsg, "DELIVERY_LOG_LIMIT", 3)
        router._local_subs.setdefault("t", []).append(lambda *a: None)
        for value in range(10):
            router.publish("t", value)
        assert router.delivery_log_dropped == 7
        # Entries below the cap are never counted as dropped.
        assert router.delivery_log_dropped + len(router.delivery_log) == 10

    def test_publish_fans_out_in_subscription_order(self, gateway_pair):
        """An island that waited and fetched before it subscribed is still
        served after the islands that subscribed before it."""
        sim, gw_a, gw_b = gateway_pair
        router = gw_a.events
        served: list[str] = []
        waits = {"B": router.handle_wait("B", 0, 10.0)}
        assert router.handle_fetch("B") == []
        router.handle_subscribe("A", "t", "")
        router.handle_subscribe("B", "t", "")
        waits["A"] = router.handle_wait("A", 0, 10.0)
        for island, wait in waits.items():
            wait.add_done_callback(lambda done, island=island: served.append(island))
        router.publish("t", 1)
        sim.run_for(1.0)
        assert served == ["A", "B"]
        assert [waits[i].result()[1][0]["payload"] for i in "AB"] == [1, 1]

    def test_shutdown_answers_parked_waits_in_the_order_they_parked(
        self, gateway_pair
    ):
        sim, gw_a, gw_b = gateway_pair
        router = gw_a.events
        served: list[str] = []
        for island in "AB":
            router.handle_subscribe(island, "t", "")
        for island in "BA":
            router.handle_wait(island, 0, 10.0).add_done_callback(
                lambda done, island=island: served.append(island)
            )
        router.stop_polling()
        assert served == ["B", "A"]

    def test_shutdown_stops_channels_in_the_order_they_opened(
        self, gateway_pair, monkeypatch
    ):
        sim, gw_a, gw_b = gateway_pair
        router = gw_a.events
        stopped: list[str] = []

        class FakeChannel:
            def __init__(self, location):
                self.location = location

            def start(self):
                pass

            def stop(self):
                stopped.append(self.location)

        monkeypatch.setattr(
            gw_a.protocol,
            "open_event_channel",
            lambda location, island, **kw: FakeChannel(location),
        )
        router._track_remote_gateway("loc-1", "x")
        router._track_remote_gateway("loc-2", "y")
        for location in ("loc-2", "loc-1"):
            router._maybe_open_channel(location)
        router.stop_polling()
        assert stopped == ["loc-2", "loc-1"]


class TestPollPruneOnUnregister:
    """A gateway that leaves the VSR must stop costing poll round trips."""

    def _subscribed(self, gateway_pair):
        sim, gw_a, gw_b = gateway_pair
        sim.run_until_complete(gw_b.subscribe("t", lambda *a: None))
        router = gw_b.events
        assert len(polled(router)) == 1
        return sim, gw_a, gw_b, router

    def test_vsr_unregister_chain(self, gateway_pair):
        sim, gw_a, gw_b = gateway_pair
        assert sim.run_until_complete(gw_a.unregister_with_directory()) is True
        islands = sim.run_until_complete(gw_b.vsr.list_gateways())
        assert "a" not in islands
        # A second unregister is a no-op, not an error.
        assert sim.run_until_complete(gw_a.unregister_with_directory()) is False

    def test_poll_loop_pruned_after_island_leaves_vsr(self, gateway_pair):
        sim, gw_a, gw_b, router = self._subscribed(gateway_pair)
        location = next(iter(polled(router)))
        sim.run_until_complete(gw_a.unregister_with_directory())
        gw_a.protocol.stop()  # island goes dark: polls start failing
        sim.run_for(30.0)
        # Two consecutive failures trigger the registry check, the check
        # finds the island gone, and the loop (plus its state) is pruned.
        assert polled(router) == {}
        assert location not in remote_islands(router)
        assert location not in poll_failures(router)

    def test_registered_island_keeps_its_poll_loop_through_failures(
        self, gateway_pair
    ):
        sim, gw_a, gw_b, router = self._subscribed(gateway_pair)
        gw_a.protocol.stop()  # down, but still in the directory
        sim.run_for(30.0)
        # The registry still lists "a" (an outage, not a departure), so
        # polling continues for when the island comes back.
        assert len(polled(router)) == 1


class TestGatewayControlOps:
    def test_ping_identifies_the_island(self, gateway_pair):
        sim, gw_a, gw_b = gateway_pair
        from repro.soap.wsdl import parse_location

        address, port, service = parse_location(gw_a.protocol.control_location())
        answer = sim.run_until_complete(
            gw_b.protocol.client.call(address, service, "ping", [], port=port)
        )
        assert answer == "a"

    def test_unknown_control_operation_faults(self, gateway_pair):
        sim, gw_a, gw_b = gateway_pair
        from repro.errors import SoapFault
        from repro.soap.wsdl import parse_location

        address, port, service = parse_location(gw_a.protocol.control_location())
        with pytest.raises(SoapFault):
            sim.run_until_complete(
                gw_b.protocol.client.call(address, service, "reboot", [], port=port)
            )
