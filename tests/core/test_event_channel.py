"""Push event channel: establishment, latency, coalescing, acks, fallback.

Two modern islands must stream events over a held exchange with no
polling; a legacy subscriber must stay on the poll wire; and a dead
channel must degrade to polling without losing events, then re-establish
behind the resilience backoff.
"""

from __future__ import annotations

import pytest

from repro.core import gateway_soap, vsg
from repro.core.framework import MetaMiddleware
from repro.errors import TransportError
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.soap import envelope
from repro.soap.channel import EventChannelClient
from repro.soap.http import (
    COMPRESS_MIN_BYTES,
    LEGACY_INTERCHANGE,
    REACTOR_INTERCHANGE,
    HttpRequest,
    InterchangeConfig,
)
from tests.router_views import channels, polled, remote_topics

MODERN = REACTOR_INTERCHANGE


def build_home(*cfgs: InterchangeConfig | None, poll_interval: float = 2.0):
    """Bare islands (no PCMs) ``a``, ``b``, ``c`` ... with one interchange
    config each."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone)
    islands = [
        mm.add_island(name, None, interchange=cfg, poll_interval=poll_interval)
        for name, cfg in zip("abcdefgh", cfgs)
    ]
    sim.run_until_complete(mm.connect())
    return (sim, mm, *islands)


def subscribe(sim, island, topic, sink):
    return sim.run_until_complete(
        island.gateway.subscribe(topic, lambda t, p, i: sink.append(p))
    )


class TestChannelEstablishment:
    def test_push_pair_opens_channel_and_stops_polling(self):
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        assert subscribe(sim, b, "t", received) == 1
        router = b.gateway.events
        assert len(channels(router)) == 1
        assert polled(router) == {}
        polls_before = router.polls_performed
        sim.run_for(30.0)
        assert router.polls_performed == polls_before
        a.gateway.publish_event("t", 1)
        sim.run_for(1.0)
        assert received == [1]

    def test_legacy_subscriber_keeps_polling(self):
        """The subscriber's own config decides: a legacy island polls even
        a publisher that serves channels."""
        sim, mm, a, b = build_home(MODERN, None)
        received: list = []
        subscribe(sim, b, "t", received)
        router = b.gateway.events
        assert channels(router) == {}
        assert len(polled(router)) == 1
        a.gateway.publish_event("t", "polled")
        sim.run_for(5.0)
        assert received == ["polled"]


class TestOneSubscriptionPath:
    """``subscribe(topic)`` is ``subscribe_many([topic])``: one announce
    per remote gateway, one success rule, one wire."""

    def test_unreachable_publisher_keeps_one_topic_batch_polling(self):
        """A failed one-topic announce opens no channel: the subscriber
        keeps polling, exactly as a failed ``subscribe`` does."""
        sim, mm, a, b = build_home(MODERN, MODERN)
        a.gateway.node.crash()
        subscribed = b.gateway.subscribe_many(["t"], lambda t, p, i: None)
        sim.run_for(40.0)
        assert subscribed.result() == 0
        router = b.gateway.events
        assert channels(router) == {}
        assert router.channels_opened == 0
        assert len(polled(router)) == 1

    @staticmethod
    def _backbone_trace(subscribe_call):
        sim, mm, a, b = build_home(MODERN, MODERN)
        monitor = TrafficMonitor(trace_enabled=True).watch(
            mm.network.segment("backbone")
        )
        received: list = []
        assert sim.run_until_complete(
            subscribe_call(b.gateway, lambda t, p, i: received.append(p))
        ) == 1
        sim.run_for(1.0)
        a.gateway.publish_event("t", "x")
        sim.run_for(30.0)
        assert received == ["x"]
        return monitor.trace

    def test_one_topic_batch_is_the_subscribe_wire(self):
        single = self._backbone_trace(lambda gw, cb: gw.subscribe("t", cb))
        batch = self._backbone_trace(lambda gw, cb: gw.subscribe_many(["t"], cb))
        assert single
        assert batch == single

    def test_two_topic_batch_is_one_exchange_per_gateway(self, monkeypatch):
        sim, mm, a, b, c = build_home(MODERN, MODERN, MODERN)
        client = c.gateway.protocol.client
        operations: list = []
        call = client.call

        def record(address, service, operation, args, **kwargs):
            operations.append(operation)
            return call(address, service, operation, args, **kwargs)

        monkeypatch.setattr(client, "call", record)
        received: list = []
        assert sim.run_until_complete(
            c.gateway.subscribe_many(["t", "u"], lambda t, p, i: received.append(p))
        ) == 2
        assert operations == ["subscribe_many", "subscribe_many"]
        for publisher in (a, b):
            assert remote_topics(publisher.gateway.events, "c") == {"t", "u"}
        sim.run_for(1.0)
        a.gateway.publish_event("t", 1)
        b.gateway.publish_event("u", 2)
        sim.run_for(1.0)
        assert sorted(received) == [1, 2]


class TestPushDelivery:
    def test_notification_latency_is_rtt_not_poll_interval(self):
        sim, mm, a, b = build_home(MODERN, MODERN, poll_interval=5.0)
        delivered_at: list = []
        sim.run_until_complete(
            b.gateway.subscribe("t", lambda t, p, i: delivered_at.append(sim.now))
        )
        sim.run_for(1.0)  # wait is parked on the publisher
        published_at = sim.now
        a.gateway.publish_event("t", "x")
        sim.run_for(1.0)
        assert len(delivered_at) == 1
        assert delivered_at[0] - published_at < 0.05

    def test_same_instant_burst_coalesces_into_one_frame(self):
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        sim.run_for(1.0)
        channel = next(iter(channels(b.gateway.events).values()))
        for value in range(10):
            a.gateway.publish_event("t", value)
        sim.run_for(1.0)
        assert received == list(range(10))
        assert channel.frames_received == 1
        assert a.gateway.events.events_pushed == 10

    def test_flush_window_coalesces_spread_burst(self, monkeypatch):
        monkeypatch.setattr(vsg, "EVENT_FLUSH_WINDOW", 0.5)
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        sim.run_for(1.0)
        channel = next(iter(channels(b.gateway.events).values()))
        a.gateway.publish_event("t", 1)
        sim.run_for(0.2)  # inside the window
        a.gateway.publish_event("t", 2)
        sim.run_for(2.0)
        assert received == [1, 2]
        assert channel.frames_received == 1

    def test_idle_channel_sends_only_keepalives(self):
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        router = b.gateway.events
        channel = next(iter(channels(router).values()))
        sim.run_for(60.0)
        # EVENT_MAX_HOLD=25 -> roughly two empty keepalive frames per
        # minute, versus 30 fetch round trips at the default 2 s poll.
        assert 1 <= channel.frames_received <= 4
        assert router.polls_performed == 0
        assert received == []


@pytest.fixture
def frames_seen(monkeypatch):
    """Every event-frame response as the subscriber parsed it off the wire
    (headers as sent, body already gunzipped)."""
    seen: list = []
    deliver = EventChannelClient._on_response

    def record(channel, future):
        if future.exception() is None:
            seen.append(future.result())
        deliver(channel, future)

    monkeypatch.setattr(EventChannelClient, "_on_response", record)
    return seen


class TestFrameCompression:
    """Event frames follow the modern wire's one gzip rule: at or above
    ``COMPRESS_MIN_BYTES`` they travel gzipped, below it plain."""

    READINGS = [{"reading": "temp=21.50C;humidity=40.2%;" * 4, "n": n} for n in range(3)]

    def test_frame_past_floor_is_gzipped_and_delivered_intact(self, frames_seen):
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        sim.run_for(1.0)
        for reading in self.READINGS:
            a.gateway.publish_event("t", reading)
        sim.run_for(1.0)
        assert received == self.READINGS
        (frame,) = frames_seen
        assert len(frame.body) >= COMPRESS_MIN_BYTES
        assert frame.header("Content-Encoding") == "gzip"
        assert int(frame.header("Content-Length")) < len(frame.body)
        assert [event["payload"] for event in envelope.parse_event_frame(frame.body)[1]] == (
            self.READINGS
        )

    def test_empty_keepalive_frame_travels_plain(self, frames_seen):
        sim, mm, a, b = build_home(MODERN, MODERN)
        subscribe(sim, b, "t", [])
        sim.run_for(30.0)  # one EVENT_MAX_HOLD expiry, no events
        (keepalive,) = frames_seen
        assert len(keepalive.body) < COMPRESS_MIN_BYTES
        assert keepalive.header("Content-Encoding") == ""
        assert envelope.parse_event_frame(keepalive.body) == (0, [])

    def test_corrupt_gzip_frame_falls_back_and_delivers_once(self, monkeypatch):
        """The subscriber cannot gunzip the frame: the channel dies, the
        poll loop takes over, and the publisher's retained batch reaches
        the subscriber exactly once."""
        compress = gateway_soap.compress_past_floor
        corrupted: list = []

        def corrupt_first(body, headers):
            out = compress(body, headers)
            if headers.get("Content-Encoding") == "gzip" and not corrupted:
                corrupted.append(out)
                return out[:10] + b"\x00" * (len(out) - 10)
            return out

        monkeypatch.setattr(gateway_soap, "compress_past_floor", corrupt_first)
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        sim.run_for(1.0)
        router = b.gateway.events
        # Disable re-establishment so the fallback path stays observable.
        b.gateway.protocol.interchange = LEGACY_INTERCHANGE
        for reading in self.READINGS:
            a.gateway.publish_event("t", reading)
        sim.run_for(0.1)
        assert corrupted
        assert received == []
        assert router.channel_deaths == 1
        assert channels(router) == {}
        assert len(polled(router)) == 1
        sim.run_for(30.0)
        assert router.polls_performed > 0
        assert received == self.READINGS
        a.gateway.publish_event("t", "after")
        sim.run_for(5.0)
        assert received == self.READINGS + ["after"]


class TestChannelDeath:
    def test_killed_channel_falls_back_to_polling_without_losing_events(self):
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        sim.run_for(1.0)
        router = b.gateway.events
        channel = next(iter(channels(router).values()))
        # Disable re-establishment so the fallback path stays observable.
        b.gateway.protocol.interchange = LEGACY_INTERCHANGE
        channel.kill(TransportError("injected channel death"))
        assert channels(router) == {}
        assert len(polled(router)) == 1
        assert router.channel_deaths == 1
        a.gateway.publish_event("t", "via-poll")
        sim.run_for(5.0)
        assert received == ["via-poll"]
        assert router.polls_performed > 0

    def test_reannounce_reopens_channel_after_death(self):
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        sim.run_for(1.0)
        router = b.gateway.events
        next(iter(channels(router).values())).kill(TransportError("injected"))
        assert channels(router) == {}
        # First retry fires at the resilience backoff's initial delay.
        sim.run_for(5.0)
        assert len(channels(router)) == 1
        assert router.channels_opened == 2
        assert polled(router) == {}
        a.gateway.publish_event("t", "via-new-channel")
        sim.run_for(1.0)
        assert received == ["via-new-channel"]

    def test_breaker_open_kills_channel_immediately(self):
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        router = b.gateway.events
        assert len(channels(router)) == 1
        router.on_island_unreachable("a")
        assert channels(router) == {}
        assert len(polled(router)) == 1

    def test_shutdown_quiesces_channels(self):
        sim, mm, a, b = build_home(MODERN, MODERN)
        received: list = []
        subscribe(sim, b, "t", received)
        router = b.gateway.events
        assert len(channels(router)) == 1
        mm.shutdown()
        sim.run_for(120.0)
        assert channels(router) == {}
        for channel in router.channel_clients:
            assert channel.http.open_connections() == []


class TestPublisherWaitProtocol:
    """Unit-level publisher semantics through handle_wait/handle_fetch."""

    def _router(self):
        sim, mm, a, b = build_home(MODERN, MODERN)
        router = a.gateway.events
        router.handle_subscribe("ghost", "t", "")
        return sim, router

    def test_wait_parks_until_publish_then_flushes_batch(self):
        sim, router = self._router()
        held = router.handle_wait("ghost", 0, 10.0)
        assert not held.done()
        router.publish("t", 1)
        router.publish("t", 2)
        sim.run_for(0.01)
        batch, events = held.result()
        assert batch == 1
        assert [event["payload"] for event in events] == [1, 2]

    def test_unacked_batch_redelivered_on_reconnect(self):
        sim, router = self._router()
        held = router.handle_wait("ghost", 0, 10.0)
        router.publish("t", "x")
        sim.run_for(0.01)
        batch, events = held.result()
        # The subscriber never acked (channel died mid-response): a new
        # wait carrying the stale ack gets the batch again, immediately.
        again = router.handle_wait("ghost", 0, 10.0)
        assert again.done()
        assert again.result() == (batch, events)
        # Acking releases the retained copy; the next wait parks.
        parked = router.handle_wait("ghost", batch, 10.0)
        assert not parked.done()

    def test_unacked_batch_folds_into_fallback_fetch(self):
        sim, router = self._router()
        held = router.handle_wait("ghost", 0, 10.0)
        router.publish("t", "lost")
        sim.run_for(0.01)
        assert held.done()
        router.publish("t", "queued")  # channel already dead: plain queue
        drained = router.handle_fetch("ghost")
        assert [event["payload"] for event in drained] == ["lost", "queued"]
        assert router.handle_fetch("ghost") == []

    def test_hold_expiry_answers_empty_keepalive(self):
        sim, router = self._router()
        held = router.handle_wait("ghost", 0, 0.5)
        sim.run_for(1.0)
        assert held.result() == (0, [])

    @pytest.mark.parametrize("hold", ["nan", "inf", "-inf"])
    def test_non_finite_hold_is_refused(self, hold):
        sim, mm, a, b = build_home(MODERN, MODERN)
        a.gateway.events.handle_subscribe("ghost", "t", "")
        request = HttpRequest(
            "POST",
            gateway_soap.EVENTS_PATH,
            body=f'<E><W i="ghost" a="0" h="{hold}"/></E>'.encode(),
        )
        response = a.gateway.protocol._handle_event_wait(request)
        assert response.status == 400
        assert a.gateway.events.waits_handled == 0  # never parked

    def test_new_wait_supersedes_stale_parked_wait(self):
        sim, router = self._router()
        stale = router.handle_wait("ghost", 0, 30.0)
        fresh = router.handle_wait("ghost", 0, 30.0)
        assert stale.done() and stale.result() == (0, [])
        assert not fresh.done()
