"""Tests for the SIP substrate: grammar, transactions, user agents."""

import pytest

from repro.errors import SipError
from repro.net.addressing import NodeAddress
from repro.net.simkernel import SimFuture
from repro.sip.messages import (
    SipRequest,
    SipResponse,
    make_uri,
    parse_message,
    parse_uri,
)
from repro.sip.transaction import SipTransactionLayer
from repro.sip.ua import SipUserAgent


class TestGrammar:
    def test_request_roundtrip(self):
        request = SipRequest(
            method="MESSAGE",
            uri="sip:tv@backbone/2:5060",
            headers={"X-Thing": "1"},
            body=b"payload",
        )
        parsed = parse_message(request.to_bytes())
        assert isinstance(parsed, SipRequest)
        assert parsed.method == "MESSAGE"
        assert parsed.uri == request.uri
        assert parsed.body == b"payload"
        assert parsed.header("x-thing") == "1"

    def test_response_roundtrip(self):
        response = SipResponse(status=202, body=b"ok")
        parsed = parse_message(response.to_bytes())
        assert isinstance(parsed, SipResponse)
        assert parsed.status == 202
        assert parsed.reason == "Accepted"

    def test_uri_roundtrip(self):
        address = NodeAddress("backbone", 3)
        uri = make_uri("gateway", address, 5060)
        assert parse_uri(uri) == ("gateway", address, 5060)

    @pytest.mark.parametrize(
        "bad", ["http://x", "sip:nouser", "sip:u@host", "sip:u@seg/1"]
    )
    def test_bad_uris_rejected(self, bad):
        with pytest.raises(SipError):
            parse_uri(bad)

    def test_unknown_method_rejected(self):
        with pytest.raises(SipError):
            SipRequest(method="DANCE", uri="sip:a@s/1:5060")

    @pytest.mark.parametrize("junk", [b"", b"garbage", b"\xff\xfe", b"MESSAGE\r\n\r\n"])
    def test_malformed_messages_rejected(self, junk):
        with pytest.raises(SipError):
            parse_message(junk)

    def test_non_ascii_content_length_rejected(self):
        """``str.isdigit`` accepts ``²``, which ``int`` rejects: the check
        must be ASCII digits, so the datagram is a ``SipError``."""
        with pytest.raises(SipError):
            parse_message("SIP/2.0 200 OK\r\nContent-Length: ²\r\n\r\n".encode())

    def test_non_ascii_status_code_rejected(self):
        with pytest.raises(SipError):
            parse_message("SIP/2.0 ²00 OK\r\n\r\n".encode())

    def test_content_length_found_in_any_case(self):
        parsed = parse_message(
            b"MESSAGE sip:x@y/1:5060 SIP/2.0\r\ncontent-length: 3\r\n\r\nabcdef"
        )
        assert parsed.body == b"abc"
        assert b"Content-Length" not in parsed.to_bytes()


@pytest.fixture
def layers(sim, two_hosts):
    a, b = two_hosts
    return sim, SipTransactionLayer(a), SipTransactionLayer(b), b.local_address()


class TestTransactions:
    def test_request_response(self, layers):
        sim, client, server, address = layers
        server.on_request = lambda req, src, port: SipResponse(status=200, body=req.body.upper())
        request = SipRequest(method="MESSAGE", uri="sip:x@y/1:5060", body=b"hi")
        response = sim.run_until_complete(client.send_request(address, 5060, request))
        assert response.status == 200
        assert response.body == b"HI"

    def test_bad_datagram_is_dropped_not_raised(self, layers):
        """One datagram whose numbers ``int`` cannot read must not abort
        the simulator; the layer drops it and keeps serving."""
        sim, client, server, address = layers
        server.on_request = lambda req, src, port: SipResponse(status=200)
        sender = client.stack.udp_socket()
        sender.sendto(address, 5060, "SIP/2.0 ²00 OK\r\n\r\n".encode())
        sim.run()
        request = SipRequest(method="MESSAGE", uri="sip:x@y/1:5060", body=b"hi")
        response = sim.run_until_complete(client.send_request(address, 5060, request))
        assert response.status == 200

    def test_timeout_yields_408(self, sim, net, eth, two_hosts):
        a, _ = two_hosts
        client = SipTransactionLayer(a)
        ghost = NodeAddress("eth0", 2)
        request = SipRequest(method="MESSAGE", uri="sip:x@eth0/2:5060", body=b"")
        t0 = sim.now
        response = sim.run_until_complete(client.send_request(ghost, 5060, request))
        assert response.status == 408
        assert client.retransmissions == 3  # four attempts total
        assert sim.now - t0 >= 0.5 + 1.0 + 2.0  # doubling timers ran

    def test_retransmission_recovers_from_loss(self, sim, eth, layers):
        sim, client, server, address = layers
        server.on_request = lambda req, src, port: SipResponse(status=200)
        # Drop the first two datagrams on the segment.
        drops = {"left": 2}

        def lossy(frame):
            if drops["left"] > 0:
                drops["left"] -= 1
                return True
            return False

        eth.loss_model = lossy
        request = SipRequest(method="MESSAGE", uri="sip:x@y/1:5060")
        response = sim.run_until_complete(client.send_request(address, 5060, request))
        assert response.status == 200
        assert client.retransmissions >= 1

    def test_server_absorbs_retransmitted_requests(self, sim, eth, layers):
        sim, client, server, address = layers
        calls = []
        server.on_request = lambda req, src, port: (calls.append(1), SipResponse(status=200))[1]
        # Drop only responses (single direction): response frames come from
        # the server's interface.
        server_iface = server.stack.node.interfaces[0]
        dropped = {"n": 0}

        def drop_first_response(frame):
            if frame.src == server_iface.hw_address and dropped["n"] < 1:
                dropped["n"] += 1
                return True
            return False

        eth.loss_model = drop_first_response
        request = SipRequest(method="MESSAGE", uri="sip:x@y/1:5060")
        response = sim.run_until_complete(client.send_request(address, 5060, request))
        assert response.status == 200
        assert len(calls) == 1  # handler ran once despite retransmission

    def test_async_handler(self, layers):
        sim, client, server, address = layers

        def deferred(request, src, port):
            future = SimFuture()
            sim.schedule(0.2, future.set_result, SipResponse(status=200, body=b"later"))
            return future

        server.on_request = deferred
        request = SipRequest(method="MESSAGE", uri="sip:x@y/1:5060")
        response = sim.run_until_complete(client.send_request(address, 5060, request))
        assert response.body == b"later"

    def test_handler_exception_becomes_500(self, layers):
        sim, client, server, address = layers

        def broken(request, src, port):
            raise RuntimeError("handler bug")

        server.on_request = broken
        request = SipRequest(method="MESSAGE", uri="sip:x@y/1:5060")
        response = sim.run_until_complete(client.send_request(address, 5060, request))
        assert response.status == 500

    def test_no_handler_yields_501(self, layers):
        sim, client, server, address = layers
        request = SipRequest(method="MESSAGE", uri="sip:x@y/1:5060")
        response = sim.run_until_complete(client.send_request(address, 5060, request))
        assert response.status == 501


@pytest.fixture
def agents(sim, two_hosts):
    a, b = two_hosts
    return sim, SipUserAgent(a), SipUserAgent(b)


class TestUserAgents:
    def test_message_exchange(self, agents):
        sim, ua_a, ua_b = agents
        ua_b.on_message(lambda user, req: (200, f"hello {user}".encode()))
        response = sim.run_until_complete(
            ua_a.send_message(ua_b.uri("camera"), b"ping")
        )
        assert response.ok
        assert response.body == b"hello camera"

    def test_subscribe_notify_push(self, agents):
        """The capability HTTP lacks: the server pushes, unprompted."""
        sim, subscriber, publisher = agents
        received = []
        subscriber.on_event("motion", lambda event, body, src: received.append(body))
        response = sim.run_until_complete(
            subscriber.subscribe(publisher.uri("sensors"), "motion")
        )
        assert response.status == 202
        count = publisher.publish("motion", b"hall")
        assert count == 1
        sim.run_for(1.0)
        assert received == [b"hall"]

    def test_push_latency_is_network_rtt(self, agents):
        sim, subscriber, publisher = agents
        arrival = []
        subscriber.on_event("e", lambda event, body, src: arrival.append(sim.now))
        sim.run_until_complete(subscriber.subscribe(publisher.uri("p"), "e"))
        t0 = sim.now
        publisher.publish("e", b"x")
        sim.run_for(1.0)
        assert arrival and arrival[0] - t0 < 0.01  # milliseconds, not seconds

    def test_multiple_subscribers(self, sim, net, eth):
        from tests.conftest import make_host

        publisher = SipUserAgent(make_host(net, "pub", eth))
        subscribers = [SipUserAgent(make_host(net, f"sub{i}", eth)) for i in range(3)]
        received = []
        for index, subscriber in enumerate(subscribers):
            subscriber.on_event("e", lambda ev, body, src, i=index: received.append(i))
            sim.run_until_complete(subscriber.subscribe(publisher.uri("p"), "e"))
        publisher.publish("e", b"x")
        sim.run_for(1.0)
        assert sorted(received) == [0, 1, 2]

    def test_subscriptions_rejected_when_disabled(self, sim, two_hosts):
        a, b = two_hosts
        ua_a = SipUserAgent(a)
        ua_b = SipUserAgent(b, accept_subscriptions=False)
        response = sim.run_until_complete(ua_a.subscribe(ua_b.uri("x"), "e"))
        assert response.status == 405

    def test_options_ping(self, agents):
        sim, ua_a, ua_b = agents
        from repro.sip.messages import SipRequest

        request = SipRequest(method="OPTIONS", uri=ua_b.uri("any"))
        response = sim.run_until_complete(
            ua_a.transactions.send_request(ua_b.address, ua_b.port, request)
        )
        assert response.status == 200
