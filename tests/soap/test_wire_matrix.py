"""Legacy x modern wire matrix (extends C8/C9).

A home where islands disagree about the interchange must still bridge in
both directions, and the island on the legacy wire must put byte-for-byte
legacy frames on the wire even though its *peer* runs the modern wire —
an island's config decides only what its own clients send, not a
home-wide mode switch.
"""

from __future__ import annotations

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.errors import TransportError
from repro.soap.http import (
    FEATURES_HEADER,
    MODERN_TOKEN,
    REACTOR_INTERCHANGE,
    InterchangeConfig,
)
from tests.router_views import channels, polled

MODERN = REACTOR_INTERCHANGE

ALPHA_IFACE = simple_interface("Alpha", {"ping": ("string", "->string")})
BETA_IFACE = simple_interface("Beta", {"ping": ("string", "->string")})

#: Fat enough to clear the gzip floor on the modern side.
PAYLOAD = "status=OK;reading=21.5C;battery=97%;mode=auto;" * 12


def build_mixed_home(
    a_cfg: InterchangeConfig | None, b_cfg: InterchangeConfig | None, trace: bool = False
):
    """Two islands with *per-island* interchange configs; each exports one
    echo service so calls can be bridged in both directions."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone)
    island_a = mm.add_island("a", None, interchange=a_cfg)
    island_b = mm.add_island("b", None, interchange=b_cfg)

    def echo(operation, args):
        return PAYLOAD + args[0]

    sim.run_until_complete(island_a.gateway.export_service("Alpha", ALPHA_IFACE, echo))
    sim.run_until_complete(island_b.gateway.export_service("Beta", BETA_IFACE, echo))
    sim.run_until_complete(mm.connect())
    monitor = TrafficMonitor(trace_enabled=trace).watch(backbone)
    return sim, mm, island_a, island_b, monitor


def call(sim, island, service, tag):
    return sim.run_until_complete(island.gateway.invoke(service, "ping", [tag]))


class TestMixedFormatBridging:
    def test_bridged_calls_work_in_both_directions(self):
        sim, mm, a, b, _ = build_mixed_home(None, MODERN)
        for round_trip in range(3):
            assert call(sim, a, "Beta", f"a{round_trip}") == PAYLOAD + f"a{round_trip}"
            assert call(sim, b, "Alpha", f"b{round_trip}") == PAYLOAD + f"b{round_trip}"

    def test_fast_side_upgrades_after_negotiation(self):
        """The modern island learns from the legacy island's server echo of
        the ``modern`` token and sends it terse envelopes; the legacy
        island never pools or goes terse.  The token travels only until
        it has been echoed: later requests and their answers carry none."""
        sim, mm, a, b, _ = build_mixed_home(None, MODERN)
        b_client = b.gateway.protocol.client
        a_client = a.gateway.protocol.client
        gw_a_addr = a.stack.local_address(mm.backbone)
        # Content-Encoding of every RPC request island b sends to island
        # a's gateway, and the token on each request and its response, in
        # order.
        encodings: list[str | None] = []
        tokens: list[tuple[str, str]] = []
        post = b_client.http.post

        def recording_post(dst, port, path, body, headers=None):
            future = post(dst, port, path, body, headers=headers)
            if (dst, port) == (gw_a_addr, 8080) and path.startswith("/soap/"):
                encodings.append((headers or {}).get("Content-Encoding"))
                sent = (headers or {}).get(FEATURES_HEADER, "")
                future.add_done_callback(
                    lambda done: tokens.append(
                        (sent, done.result().header(FEATURES_HEADER))
                    )
                )
            return future

        b_client.http.post = recording_post
        for round_trip in range(4):
            # Fat argument: request bodies must clear the gzip floor, not
            # just the responses.
            call(sim, b, "Alpha", PAYLOAD + f"x{round_trip}")
            call(sim, a, "Beta", f"y{round_trip}")
        assert (gw_a_addr, 8080) in b_client.modern_peers
        assert b_client.terse_calls_sent > 0
        assert b_client.http.pooled_exchanges > 0
        # The first, verbose exchange goes out uncompressed; once the echo
        # has put island a in ``modern_peers``, every fat terse request
        # travels gzipped.
        assert encodings == [None, "gzip", "gzip", "gzip"]
        assert tokens == [(MODERN_TOKEN, MODERN_TOKEN)] + [("", "")] * 3
        # The legacy side stays on the 2002 wire: no pooling, no terse.
        assert a_client.modern_peers == set()
        assert a_client.terse_calls_sent == 0
        assert a_client.http.pooled_exchanges == 0

    def test_first_fast_exchange_is_legacy_shaped(self):
        """Negotiation is in-band: before the first echo the modern client
        has learned nothing and must not assume."""
        sim, mm, a, b, _ = build_mixed_home(None, MODERN)
        client = b.gateway.protocol.client
        gw_a_addr = a.stack.local_address(mm.backbone)
        # connect() already exchanged directory traffic, but nothing with
        # island a's gateway server itself yet.
        assert (gw_a_addr, 8080) not in client.modern_peers
        terse_before = client.terse_calls_sent
        call(sim, b, "Alpha", "first")
        assert client.terse_calls_sent == terse_before
        assert (gw_a_addr, 8080) in client.modern_peers


class TestLegacySideByteIdentity:
    def _legacy_island_frames(self, b_cfg: InterchangeConfig | None):
        """Frame trace projected onto island a's gateway (time elided:
        the peer's config legitimately shifts absolute timestamps)."""
        sim, mm, a, b, monitor = build_mixed_home(None, b_cfg, trace=True)
        hw = str(a.node.interfaces[0].hw_address)
        for round_trip in range(3):
            call(sim, a, "Beta", f"t{round_trip}")
        return [
            (entry.protocol, entry.src, entry.dst, entry.size, entry.note)
            for entry in monitor.trace
            if entry.src == hw or entry.dst == hw
        ]

    def test_legacy_island_wire_unchanged_by_fast_peer(self):
        """Every frame island a sends or receives — sizes, endpoints,
        order — is identical whether its peer runs legacy or modern: the
        modern wire never leaks into a conversation with a client that did
        not send the token."""
        against_legacy = self._legacy_island_frames(None)
        against_modern = self._legacy_island_frames(MODERN)
        assert against_legacy == against_modern
        assert len(against_legacy) > 0

    def _legacy_event_frames(self, b_cfg: InterchangeConfig | None):
        """Frame trace of island a running the legacy *event* wire —
        subscribe announce plus poll round trips — against peer b."""
        sim, mm, a, b, monitor = build_mixed_home(None, b_cfg, trace=True)
        hw = str(a.node.interfaces[0].hw_address)
        received: list = []
        sim.run_until_complete(
            a.gateway.subscribe("news", lambda t, p, i: received.append(p))
        )
        # Publish at a fixed absolute instant: the event's embedded
        # ``published_at`` must not vary with the peer's startup timing.
        sim.run_for(30.0 - sim.now)
        b.gateway.publish_event("news", "payload-1")
        sim.run_for(6.0)
        assert received == ["payload-1"]
        return [
            (entry.protocol, entry.src, entry.dst, entry.size, entry.note)
            for entry in monitor.trace
            if entry.src == hw or entry.dst == hw
        ]

    def test_legacy_event_wire_unchanged_by_push_peer(self):
        """A legacy subscriber polling a modern publisher sees the exact
        frames it would see against a legacy publisher: the channel route
        and the token only surface for clients that ask for them."""
        against_legacy = self._legacy_event_frames(None)
        against_modern = self._legacy_event_frames(MODERN)
        assert against_legacy == against_modern
        assert len(against_legacy) > 0


class TestPushFallbackMatrix:
    """A modern subscriber streams from any SOAP publisher and leaves the
    poll wire entirely; a channel that dies falls back to polling."""

    def _home_with_subscription(
        self, a_cfg: InterchangeConfig | None, b_cfg: InterchangeConfig | None
    ):
        sim, mm, a, b, monitor = build_mixed_home(a_cfg, b_cfg, trace=False)
        events: list = []
        sim.run_until_complete(
            b.gateway.subscribe("news", lambda t, p, i: events.append(p))
        )
        return sim, mm, a, b, events

    def test_modern_subscriber_streams_from_legacy(self):
        """Every SOAP gateway serves ``/events``: the publisher's own
        legacy config does not keep a modern subscriber polling."""
        sim, mm, a, b, events = self._home_with_subscription(None, MODERN)
        router = b.gateway.events
        assert len(channels(router)) == 1
        assert polled(router) == {}
        polls_before = router.polls_performed
        a.gateway.publish_event("news", "flash")
        sim.run_for(5.0)
        assert events == ["flash"]
        assert router.polls_performed == polls_before

    def test_dead_channel_falls_back_to_polling(self):
        """A killed channel re-arms the poll loop at once, and the event
        published while it re-establishes still arrives exactly once."""
        sim, mm, a, b, events = self._home_with_subscription(None, MODERN)
        router = b.gateway.events
        next(iter(channels(router).values())).kill(TransportError("injected"))
        assert channels(router) == {}
        assert len(polled(router)) == 1
        a.gateway.publish_event("news", "after-death")
        sim.run_for(10.0)
        assert events == ["after-death"]
        assert router.channel_deaths == 1
        assert len(channels(router)) == 1

    def test_push_pair_opens_channel_and_stops_polls(self):
        sim, mm, a, b, events = self._home_with_subscription(MODERN, MODERN)
        router = b.gateway.events
        assert len(channels(router)) == 1
        assert polled(router) == {}
        polls_before = router.polls_performed
        a.gateway.publish_event("news", "flash")
        sim.run_for(5.0)
        assert events == ["flash"]
        assert router.polls_performed == polls_before
