"""Tests for the HTTP/1.0-style legacy wire and the keep-alive modern wire."""

import gc
import gzip
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import MetaMiddleware
from repro.errors import ProtocolError
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import SimFuture, Simulator
from repro.net.transport import Connection
from repro.soap import http as http_mod
from repro.soap.client import SoapClient
from repro.soap.http import (
    COMPRESS_MIN_BYTES,
    FEATURES_HEADER,
    GZIP_MEMO_SIZE,
    MODERN_TOKEN,
    REACTOR_INTERCHANGE,
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    InterchangeConfig,
    _parse_head,
    accepts_gzip,
    gunzip_bytes,
    gzip_bytes,
    persists,
)
from repro.soap.server import SoapServer


def raw_exchange(sim, client_stack, address, request: bytes):
    """Send raw request bytes on a bare connection and run the simulation
    dry: returns (everything the server wrote back, the client's end)."""
    replies: list[bytes] = []
    ends: list[Connection] = []

    def on_connected(future):
        conn = future.result()
        ends.append(conn)
        conn.set_receiver(lambda connection, data: replies.append(bytes(data)))
        conn.send(request)

    client_stack.connect(address, 80).add_done_callback(on_connected)
    sim.run()
    return b"".join(replies), ends[0]


@pytest.fixture
def server_client(sim, two_hosts):
    a, b = two_hosts
    server = HttpServer(b, 80)
    client = HttpClient(a)
    return sim, server, client, b.local_address()


class TestMessages:
    def test_request_serialisation(self):
        request = HttpRequest("POST", "/soap/Calc", {"X-Thing": "1"}, b"body")
        raw = request.to_bytes()
        assert raw.startswith(b"POST /soap/Calc HTTP/1.0\r\n")
        assert b"Content-Length: 4" in raw
        assert b"Connection: close" in raw
        assert raw.endswith(b"\r\n\r\nbody")

    @pytest.mark.parametrize(
        "message",
        [
            HttpResponse(200, headers={"content-length": "2"}, body=b"ok"),
            HttpResponse(200, headers={"connection": "close"}, body=b"ok"),
            HttpRequest("POST", "/a", {"CONTENT-LENGTH": "2"}, b"ok"),
            HttpRequest("POST", "/a", {"connection": "close"}, b"ok"),
        ],
    )
    def test_framing_headers_in_any_case_are_not_doubled(self, message):
        """The parser folds header names, so a framing header the caller
        spelled in lowercase must not be added a second time: ``2, 2``
        is no Content-Length the stack can read back."""
        raw = message.to_bytes()
        assert raw.lower().count(b"content-length") == 1
        assert raw.lower().count(b"connection") == 1
        assembler = http_mod._MessageAssembler()
        _start, _headers, _index, body = assembler.feed(raw)
        assert body == b"ok"

    def test_response_defaults_reason(self):
        assert HttpResponse(404).reason == "Not Found"
        assert HttpResponse(200).ok
        assert not HttpResponse(500).ok

    def test_header_lookup_case_insensitive(self):
        request = HttpRequest("GET", "/", {"Content-Type": "text/xml"})
        assert request.header("content-type") == "text/xml"
        assert request.header("missing", "dflt") == "dflt"


class TestExchanges:
    def test_get_roundtrip(self, server_client):
        sim, server, client, address = server_client
        server.register("/hello", lambda req: HttpResponse(200, body=b"hi " + req.method.encode()))
        response = sim.run_until_complete(client.get(address, 80, "/hello"))
        assert response.status == 200
        assert response.body == b"hi GET"

    def test_post_body_delivered(self, server_client):
        sim, server, client, address = server_client
        bodies = []

        def handler(request):
            bodies.append(request.body)
            return HttpResponse(200, body=b"ok")

        server.register("/submit", handler)
        payload = b"x" * 5000  # several MTUs
        response = sim.run_until_complete(client.post(address, 80, "/submit", payload))
        assert response.status == 200
        assert bodies == [payload]

    def test_unknown_path_404(self, server_client):
        sim, server, client, address = server_client
        response = sim.run_until_complete(client.get(address, 80, "/nope"))
        assert response.status == 404

    def test_prefix_routing(self, server_client):
        sim, server, client, address = server_client
        server.register_prefix("/soap/", lambda req: HttpResponse(200, body=req.path.encode()))
        response = sim.run_until_complete(client.get(address, 80, "/soap/AnyService"))
        assert response.body == b"/soap/AnyService"

    def test_handler_exception_becomes_500(self, server_client):
        sim, server, client, address = server_client

        def broken(request):
            raise RuntimeError("handler bug")

        server.register("/broken", broken)
        response = sim.run_until_complete(client.get(address, 80, "/broken"))
        assert response.status == 500
        assert b"handler bug" in response.body

    def test_async_handler_resolves_later(self, server_client):
        sim, server, client, address = server_client

        def slow(request):
            future = SimFuture()
            sim.schedule(5.0, future.set_result, HttpResponse(200, body=b"eventually"))
            return future

        server.register("/slow", slow)
        t0 = sim.now
        response = sim.run_until_complete(client.get(address, 80, "/slow"))
        assert response.body == b"eventually"
        assert sim.now - t0 >= 5.0

    def test_async_handler_failure_becomes_500(self, server_client):
        sim, server, client, address = server_client

        def failing(request):
            return SimFuture.failed(ValueError("deferred bug"))

        server.register("/fail", failing)
        response = sim.run_until_complete(client.get(address, 80, "/fail"))
        assert response.status == 500

    def test_each_exchange_uses_fresh_connection(self, server_client):
        """HTTP/1.0 behaviour: connection per request (the stack weight
        the paper's Section 4.2 complains about)."""
        sim, server, client, address = server_client
        server.register("/a", lambda req: HttpResponse(200))
        for _ in range(3):
            sim.run_until_complete(client.get(address, 80, "/a"))
        assert client.requests_sent == 3
        assert server.requests_served == 3
        # After the close handshakes drain, no connections linger.
        sim.run()
        assert client.stack.open_connections == 0

    def test_closed_server_refuses(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        client = HttpClient(a)
        server.close()
        with pytest.raises(Exception):
            sim.run_until_complete(client.get(b.local_address(), 80, "/"))

    def test_concurrent_requests_from_one_client(self, server_client):
        sim, server, client, address = server_client
        server.register("/n", lambda req: HttpResponse(200, body=req.header("X-N").encode()))
        futures = [
            client.request(address, 80, "GET", "/n", headers={"X-N": str(n)})
            for n in range(5)
        ]
        results = [sim.run_until_complete(f) for f in futures]
        assert [r.body for r in results] == [b"0", b"1", b"2", b"3", b"4"]


class TestGunzip:
    """One zlib pass for the common body; anything else reads or fails
    exactly as ``gzip.decompress`` does."""

    def test_single_member(self):
        assert gunzip_bytes(gzip_bytes(b"x" * 500)) == b"x" * 500

    def test_two_member_body(self):
        body = gzip_bytes(b"first ") + gzip_bytes(b"second")
        assert gunzip_bytes(body) == gzip.decompress(body) == b"first second"

    def test_zero_padded_body(self):
        body = gzip_bytes(b"payload") + b"\x00" * 8
        assert gunzip_bytes(body) == gzip.decompress(body) == b"payload"
        assert gunzip_bytes(body) == b"payload"  # again, from the memo

    def test_crc_corrupted_body_is_a_protocol_error(self):
        body = bytearray(gzip_bytes(b"payload" * 40))
        body[-8] ^= 0xFF  # first byte of the CRC32 trailer
        for _attempt in range(2):  # a failure is never memoised
            with pytest.raises(ProtocolError):
                gunzip_bytes(bytes(body))

    @pytest.mark.parametrize(
        "body", [b"not gzip", b"\x1f\x8b", gzip_bytes(b"truncated" * 40)[:-5], b""]
    )
    def test_malformed_bodies_are_protocol_errors(self, body):
        for _attempt in range(2):  # a failure is never memoised
            with pytest.raises(ProtocolError):
                gunzip_bytes(body)


class TestGzipMemo:
    """Both directions of the gzip codec are memoised pure functions: a
    hit returns exactly the bytes the codec itself would."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.binary(min_size=COMPRESS_MIN_BYTES, max_size=COMPRESS_MIN_BYTES),
            st.binary(min_size=COMPRESS_MIN_BYTES - 8, max_size=4 * COMPRESS_MIN_BYTES),
        )
    )
    def test_gzip_equals_the_codec_on_a_miss_and_a_hit(self, body):
        expected = gzip.compress(body, compresslevel=6, mtime=0)
        gzip_bytes.cache_clear()
        assert gzip_bytes(body) == expected
        assert gzip_bytes(body) == expected
        assert gzip_bytes.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_gunzip_round_trips_on_a_hit(self):
        body = b"reply " * 80
        packed = gzip_bytes(body)
        gunzip_bytes.cache_clear()
        assert gunzip_bytes(packed) == body
        assert gunzip_bytes(packed) == body
        assert gunzip_bytes.cache_info()[:2] == (1, 1)

    def test_memo_stays_bounded(self):
        for index in range(GZIP_MEMO_SIZE + 20):
            gunzip_bytes(gzip_bytes(b"%d " % index * 100))
        assert gzip_bytes.cache_info().currsize == GZIP_MEMO_SIZE
        assert gunzip_bytes.cache_info().currsize == GZIP_MEMO_SIZE

    def test_memo_takes_bytes_only(self):
        """The memo hashes its argument, so a mutable buffer is refused
        rather than remembered under contents that may change."""
        with pytest.raises(TypeError):
            gzip_bytes(bytearray(b"x" * 300))
        with pytest.raises(TypeError):
            gunzip_bytes(bytearray(gzip_bytes(b"x" * 300)))

    def test_every_caller_passes_bytes(self, monkeypatch, sim, two_hosts):
        """Every body the stack hands the codec is ``bytes``: a verbose
        negotiation reply gzipped for ``Accept-Encoding``, a terse request
        and its terse answer, each past the floor, and a push event frame
        between two modern islands."""
        seen: dict[str, set[type]] = {"gzip": set(), "gunzip": set()}
        for name, key in (("gzip_bytes", "gzip"), ("gunzip_bytes", "gunzip")):
            original = getattr(http_mod, name)

            def recording(data, original=original, key=key):
                seen[key].add(type(data))
                return original(data)

            monkeypatch.setattr(http_mod, name, recording)
        a, b = two_hosts
        server = SoapServer(b)
        server.register_service("Echo", lambda operation, args: args[0])
        client = SoapClient(a, REACTOR_INTERCHANGE)
        fat = "reading=21.5C;battery=97%;" * 20
        for _call in range(2):  # the negotiation, then a terse call
            assert sim.run_until_complete(
                client.call(b.local_address(), "Echo", "echo", [fat])
            ) == fat
        world = Simulator()
        net = Network(world)
        mm = MetaMiddleware(net, net.create_segment(EthernetSegment, "backbone"))
        publisher = mm.add_island("a", None, interchange=REACTOR_INTERCHANGE)
        subscriber = mm.add_island("b", None, interchange=REACTOR_INTERCHANGE)
        world.run_until_complete(mm.connect())
        received: list = []
        world.run_until_complete(
            subscriber.gateway.subscribe("t", lambda t, p, i: received.append(p))
        )
        world.run_for(1.0)
        publisher.gateway.publish_event("t", fat)
        world.run_for(1.0)
        assert received == [fat]
        assert seen == {"gzip": {bytes}, "gunzip": {bytes}}


class TestHeaderParsing:
    def test_duplicate_headers_fold_comma_joined(self):
        """Repeated header lines must fold per RFC 2616 §4.2, not silently
        overwrite each other (regression: the old parser kept only the
        last occurrence)."""
        raw = (
            b"GET / HTTP/1.0\r\n"
            b"X-Tag: one\r\n"
            b"X-Tag: two\r\n"
            b"x-tag: three"
        )
        _start, headers, index = _parse_head(raw)
        assert headers == {"X-Tag": "one, two, three"}
        assert index == {"x-tag": "one, two, three"}

    def test_duplicate_fold_keeps_first_spelling(self):
        raw = b"GET / HTTP/1.0\r\nAccept-encoding: gzip\r\nACCEPT-ENCODING: br"
        _start, headers, index = _parse_head(raw)
        assert headers == {"Accept-encoding": "gzip, br"}
        assert index == {"accept-encoding": "gzip, br"}

    def test_assembled_message_carries_the_folded_index(self):
        assembler = http_mod._MessageAssembler()
        start, headers, index, body = assembler.feed(
            b"HTTP/1.1 200 OK\r\nX-Trace: a\r\ncontent-LENGTH: 2\r\nx-trace: b\r\n\r\nok"
        )
        assert index == {"x-trace": "a, b", "content-length": "2"}
        response = http_mod._build_response(start, headers, index, body)
        assert response.header("X-TRACE") == "a, b"
        assert response.to_bytes().lower().count(b"content-length") == 1

    def test_header_index_survives_post_construction_mutation(self):
        """The case-folded index is built once, but additions after
        construction must still be visible through header()."""
        response = HttpResponse(200, headers={"Content-Type": "text/xml"})
        response.headers["X-Late"] = "yes"
        assert response.header("x-late") == "yes"
        assert response.header("CONTENT-TYPE") == "text/xml"

    def test_header_read_sees_a_value_changed_in_place(self):
        response = HttpResponse(200, headers={"Content-Type": "text/xml"})
        assert response.header("content-type") == "text/xml"
        response.headers["Content-Type"] = "x"
        assert response.header("content-type") == "x"

    def test_header_read_sees_a_swap_that_keeps_the_count(self):
        """Deleting one header and adding another leaves as many headers
        as before; the index must not take that for "unchanged", or the
        serialiser adds a second ``Content-Length`` (the smuggling shape
        the parser rejects)."""
        request = HttpRequest("POST", "/a", {"X-Drop": "1"}, b"abcdef")
        assert request.header("Content-Length") == ""
        raw = request.to_bytes()
        assert raw.count(b"Content-Length: 6") == 1
        del request.headers["X-Drop"]
        request.headers["Content-Length"] = "3"
        request.body = b"abc"
        assert request.header("content-length") == "3"
        assert request.header("x-drop", "gone") == "gone"
        raw = request.to_bytes()
        assert raw.lower().count(b"content-length") == 1
        start, headers, _index, body = http_mod._MessageAssembler().feed(raw)
        assert headers == {"Content-Length": "3", "Connection": "close"}
        assert body == b"abc"

    def test_parsed_message_sees_later_changes(self):
        start, headers, index, body = http_mod._MessageAssembler().feed(
            b"HTTP/1.0 200 OK\r\nContent-Type: a\r\nContent-Length: 2\r\n\r\nok"
        )
        response = http_mod._build_response(start, headers, index, body)
        assert response.header("content-type") == "a"
        response.headers["Content-Type"] = "b"
        assert response.header("CONTENT-TYPE") == "b"
        response.headers = {"X-New": "1"}
        assert response.header("content-type") == ""
        assert response.header("x-new") == "1"

    def test_header_read_on_a_parsed_message_is_one_call(self):
        start, headers, index, body = http_mod._MessageAssembler().feed(
            b"HTTP/1.0 200 OK\r\nContent-Type: a\r\nContent-Length: 2\r\n\r\nok"
        )
        response = http_mod._build_response(start, headers, index, body)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            response.header("Content-Type")
        finally:
            sys.setprofile(None)
        assert calls == ["header"]


class TestAssemblerDeliveries:
    """However the stream is cut into deliveries, and whether they come as
    ``bytes`` or zero-copy ``memoryview`` slices, the assembler returns
    the same messages in the same order."""

    @settings(max_examples=80, deadline=None)
    @given(
        bodies=st.lists(st.binary(max_size=300), min_size=1, max_size=4),
        cuts=st.lists(st.integers(min_value=0, max_value=2000), max_size=6),
        views=st.booleans(),
    )
    def test_any_cut_yields_the_same_messages(self, bodies, cuts, views):
        messages = [
            HttpRequest("POST", f"/m{index}", {"X-Index": str(index)}, body, "HTTP/1.1")
            for index, body in enumerate(bodies)
        ]
        stream = b"".join(message.to_bytes() for message in messages)
        edges = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
        assembler = http_mod._MessageAssembler()
        got = []
        for low, high in zip(edges, edges[1:]):
            data = memoryview(stream)[low:high] if views else stream[low:high]
            while True:
                complete = assembler.feed(data)
                if complete is None:
                    break
                start, headers, _index, body = complete
                assert type(body) is bytes
                got.append((start, headers, body))
                data = b""
                if not assembler.has_buffered:
                    break
        assert got == [
            (
                ["POST", m.path, "HTTP/1.1"],
                {**m.headers, "Content-Length": str(len(m.body))},
                m.body,
            )
            for m in messages
        ]
        assert not assembler.has_buffered


class TestExtensionHeaderRoundTrip:
    """Unknown ``X-*`` extension headers (the trace context travels as
    ``X-Trace``) must survive serialize → parse unchanged, in both
    directions, without the transport knowing what they mean."""

    @staticmethod
    def _head_of(raw: bytes):
        head, _sep, _body = raw.partition(b"\r\n\r\n")
        start, headers, _index = _parse_head(head)
        return start, headers

    def test_request_extension_headers_round_trip(self):
        request = HttpRequest(
            "POST",
            "/soap/Calc",
            {"X-Trace": "t000001;s000003", "X-Custom-Flag": "on"},
            b"<xml/>",
        )
        start, headers = self._head_of(request.to_bytes())
        assert start == ["POST", "/soap/Calc", "HTTP/1.0"]
        assert headers["X-Trace"] == "t000001;s000003"
        assert headers["X-Custom-Flag"] == "on"

    def test_response_extension_headers_round_trip(self):
        response = HttpResponse(200, headers={"X-Trace": "t000001;s000004"})
        _start, headers = self._head_of(response.to_bytes())
        assert headers["X-Trace"] == "t000001;s000004"

    def test_reserialized_message_preserves_extension_headers(self):
        """Parse a request off the wire, rebuild it, and the unknown
        header is still there — proxies/servers that reconstruct messages
        must not shed extension headers."""
        original = HttpRequest("POST", "/p", {"X-Trace": "t000002;s000001"}, b"hi")
        start, headers = self._head_of(original.to_bytes())
        rebuilt = HttpRequest(start[0], start[1], headers, b"hi", version=start[2])
        _start2, headers2 = self._head_of(rebuilt.to_bytes())
        assert headers2["X-Trace"] == "t000002;s000001"

    def test_duplicate_extension_headers_fold_on_parse(self):
        """Duplicate X-* lines fold comma-joined (RFC 2616 §4.2) like any
        other header — the folded value then round-trips as one line."""
        raw = (
            b"POST /p HTTP/1.0\r\n"
            b"X-Trace: t000001;s000001\r\n"
            b"x-trace: t000001;s000002"
        )
        _start, headers, _index = _parse_head(raw)
        assert headers == {"X-Trace": "t000001;s000001, t000001;s000002"}
        rebuilt = HttpRequest("POST", "/p", headers, b"")
        _s, reparsed = self._head_of(rebuilt.to_bytes())
        assert reparsed["X-Trace"] == "t000001;s000001, t000001;s000002"


class TestKeepAlive:
    @pytest.fixture
    def fast_pair(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        client = HttpClient(a, REACTOR_INTERCHANGE)
        return sim, server, client, b.local_address()

    def test_connection_reused_across_exchanges(self, fast_pair):
        sim, server, client, address = fast_pair
        server.register("/a", lambda req: HttpResponse(200, body=b"ok"))
        for _ in range(4):
            response = sim.run_until_complete(client.get(address, 80, "/a"))
            assert response.status == 200
        assert server.requests_served == 4
        assert server.keepalive_reuses == 3
        assert len(client.open_connections()) == 1

    def test_idle_timeout_closes_pooled_connection(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        client = HttpClient(a, REACTOR_INTERCHANGE)
        server.register("/a", lambda req: HttpResponse(200))
        sim.run_until_complete(client.get(b.local_address(), 80, "/a"))
        assert len(client.open_connections()) == 1
        sim.run()  # drains the idle timer
        assert len(client.open_connections()) == 0
        assert client.stack.open_connections == 0

    def test_invalidate_evicts_and_future_requests_reconnect(self, fast_pair):
        sim, server, client, address = fast_pair
        server.register("/a", lambda req: HttpResponse(200))
        sim.run_until_complete(client.get(address, 80, "/a"))
        client.invalidate(address)
        assert len(client.open_connections()) == 0
        assert client.pooled_evictions == 1
        response = sim.run_until_complete(client.get(address, 80, "/a"))
        assert response.status == 200

    def test_pool_lru_cap_evicts_idle_destination(self, sim, net, eth, monkeypatch):
        from tests.conftest import make_host

        monkeypatch.setattr(http_mod, "POOL_DESTINATIONS", 2)
        hosts = [make_host(net, f"h{i}", eth) for i in range(4)]
        client_stack = make_host(net, "client", eth)
        servers = [HttpServer(stack, 80) for stack in hosts]
        for server in servers:
            server.register("/a", lambda req: HttpResponse(200))
        client = HttpClient(client_stack, REACTOR_INTERCHANGE)
        for stack in hosts[:3]:
            sim.run_until_complete(client.get(stack.local_address(), 80, "/a"))
        # Cap is 2: pooling the 3rd destination evicted the LRU first one.
        assert len(client.open_connections()) == 2
        assert client.pooled_evictions == 1

    def test_legacy_server_close_degrades_transparently(self, sim, two_hosts):
        """A keep-alive client talking to a server that answers
        ``Connection: close`` must still complete every exchange."""
        a, b = two_hosts
        server = HttpServer(b, 80)
        # Handler forces legacy behaviour by overriding the connection token.
        server.register(
            "/a", lambda req: HttpResponse(200, headers={"Connection": "close"})
        )
        client = HttpClient(a, InterchangeConfig(modern=True))
        for _ in range(3):
            response = sim.run_until_complete(client.get(b.local_address(), 80, "/a"))
            assert response.status == 200
        sim.run()
        assert client.stack.open_connections == 0


#: RFC 7230 §6.3 persistence: (version, Connection header, persists).
PERSISTENCE_MATRIX = [
    pytest.param("HTTP/1.1", None, True, id="1.1-default"),
    pytest.param("HTTP/1.1", "close", False, id="1.1-close"),
    pytest.param("HTTP/1.0", "Keep-Alive, Upgrade", True, id="1.0-keep-alive"),
    pytest.param("HTTP/1.0", None, False, id="1.0-default"),
]


class TestCyclicGarbage:
    """A server's per-connection and per-request state is freed by
    reference counting, so an exchange leaves the cycle collector nothing,
    on either wire, with a synchronous or an asynchronous handler."""

    @staticmethod
    def garbage_of(run) -> int:
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("config", [None, REACTOR_INTERCHANGE], ids=["legacy", "modern"])
    @pytest.mark.parametrize("held", [False, True], ids=["sync", "async"])
    def test_server_exchange_adds_no_cyclic_garbage(self, sim, two_hosts, config, held):
        a, b = two_hosts
        server = HttpServer(b, 80)

        def handler(request):
            response = HttpResponse(200, body=request.body * 2)
            if not held:
                return response
            future = SimFuture()
            sim.schedule(0.005, future.set_result, response)
            return future

        server.register("/echo", handler)
        client = HttpClient(a, config)
        address = b.local_address()

        def exchange() -> None:
            response = sim.run_until_complete(client.post(address, 80, "/echo", b"ping " * 50))
            assert response.body == b"ping " * 100

        exchange()  # the first exchange opens the pooled connection
        assert self.garbage_of(exchange) == 0


class TestPersistence:
    """Server and pooled client decide persistence by the same rule: an
    HTTP/1.1 message persists unless ``close`` is among its
    ``Connection`` tokens; an HTTP/1.0 one only with ``keep-alive``."""

    @pytest.mark.parametrize("version,connection,keeps", PERSISTENCE_MATRIX)
    def test_rule(self, version, connection, keeps):
        assert persists(version, connection or "") is keeps

    @pytest.mark.parametrize("version,connection,keeps", PERSISTENCE_MATRIX)
    def test_server(self, sim, two_hosts, version, connection, keeps):
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register("/a", lambda request: HttpResponse(200, body=b"ok"))
        head = f"GET /a {version}\r\n"
        if connection is not None:
            head += f"Connection: {connection}\r\n"
        reply, conn = raw_exchange(sim, a, b.local_address(), head.encode() + b"\r\n")
        assert reply.endswith(b"\r\n\r\nok")
        if keeps:
            # An HTTP/1.1 response persists by default: no Connection header.
            assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"Connection:" not in reply
            assert conn.state == Connection.ESTABLISHED
        else:
            assert b"Connection: close" in reply
            assert conn.state == Connection.CLOSED

    @pytest.mark.parametrize("version,connection,keeps", PERSISTENCE_MATRIX)
    def test_pooled_client(self, sim, two_hosts, version, connection, keeps):
        a, b = two_hosts
        head = f"{version} 200 OK\r\nContent-Length: 2\r\n"
        if connection is not None:
            head += f"Connection: {connection}\r\n"
        answer = head.encode() + b"\r\nok"

        def on_connection(conn):
            conn.set_receiver(lambda connection, data: connection.send(answer))

        b.listen(80, on_connection)
        client = HttpClient(a, REACTOR_INTERCHANGE)
        response = sim.run_until_complete(client.get(b.local_address(), 80, "/a"))
        assert response.body == b"ok"
        assert len(client.open_connections()) == (1 if keeps else 0)
        assert len(client.open_connections()) == (1 if keeps else 0)

    def test_modern_request_carries_no_connection_header(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        seen: list[dict] = []
        server.register(
            "/a", lambda request: seen.append(request.headers) or HttpResponse(200)
        )
        client = HttpClient(a, REACTOR_INTERCHANGE)
        sim.run_until_complete(client.get(b.local_address(), 80, "/a"))
        assert "Connection" not in seen[0]
        assert server.keepalive_reuses == 0
        sim.run_until_complete(client.get(b.local_address(), 80, "/a"))
        assert server.keepalive_reuses == 1


class TestCompression:
    def test_gzip_negotiation_roundtrip(self, sim, two_hosts):
        """The server echoes the token to a client that sent it, gzips a
        response past the floor for a client that accepts it, and
        inflates a gzip request body before its handler sees it."""
        a, b = two_hosts
        server = HttpServer(b, 80)
        client = HttpClient(a, REACTOR_INTERCHANGE)
        big = b"event " * 200
        seen: list[bytes] = []

        def handler(request):
            seen.append(request.body)
            return HttpResponse(200, body=big)

        server.register("/big", handler)
        address = b.local_address()
        negotiate = {FEATURES_HEADER: MODERN_TOKEN, "Accept-Encoding": "gzip"}
        first = sim.run_until_complete(
            client.post(address, 80, "/big", b"hello-world", headers=negotiate)
        )
        assert first.body == big
        assert first.header("Content-Encoding") == "gzip"
        assert first.header(FEATURES_HEADER) == MODERN_TOKEN
        second = sim.run_until_complete(
            client.post(
                address, 80, "/big", gzip_bytes(b"x" * 500),
                headers={**negotiate, "Content-Encoding": "gzip"},
            )
        )
        assert second.body == big
        assert seen == [b"hello-world", b"x" * 500]

    def test_unknown_token_gets_no_echo(self, server_client):
        sim, server, client, address = server_client
        server.register("/a", lambda request: HttpResponse(200))
        response = sim.run_until_complete(
            client.post(address, 80, "/a", b"", headers={FEATURES_HEADER: "terse gzip"})
        )
        assert response.header(FEATURES_HEADER) == ""

    @pytest.mark.parametrize(
        "accept,gzipped",
        [
            ("gzip", True),
            ("br, GZIP", True),
            ("gzip;q=0.5", True),
            ("*", True),
            ("gzip;q=0", False),
            ("gzip; q=0.000", False),
            ("x-gzip-not", False),
            ("*;q=0", False),
            ("gzip;q=0, *", False),
            ("identity", False),
            ("gzip;q=junk", False),
        ],
    )
    def test_accept_encoding_codings_and_weights(self, sim, two_hosts, accept, gzipped):
        """Only ``gzip`` (or ``*``) with a weight above zero earns a gzip
        body: a substring match would gzip for ``gzip;q=0``, an explicit
        refusal, and for ``x-gzip-not``."""
        assert accepts_gzip(accept) is gzipped
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register("/big", lambda request: HttpResponse(200, body=b"event " * 200))
        request = f"GET /big HTTP/1.0\r\nAccept-Encoding: {accept}\r\n\r\n"
        reply, _conn = raw_exchange(sim, a, b.local_address(), request.encode())
        head, _sep, body = reply.partition(b"\r\n\r\n")
        assert (b"\r\nContent-Encoding: gzip" in head) is gzipped
        assert (body == b"event " * 200) is not gzipped

    def test_gzip_deterministic(self):
        assert gzip_bytes(b"payload" * 50) == gzip_bytes(b"payload" * 50)

    def test_legacy_exchange_carries_no_negotiation_headers(self, server_client):
        """A default-config client must not leak fast-path headers — the
        2002 wire format is the baseline the experiments measure."""
        sim, server, client, address = server_client
        seen = {}

        def handler(request):
            seen.update(request.headers)
            return HttpResponse(200, body=b"ok" * 200)

        server.register("/a", handler)
        response = sim.run_until_complete(client.get(address, 80, "/a"))
        assert FEATURES_HEADER not in seen
        assert "Accept-Encoding" not in seen
        assert response.header("Content-Encoding") == ""
        assert response.header(FEATURES_HEADER) == ""


class TestMalformedFraming:
    """Framing numbers must be plain ASCII digits: anything else is a
    ``ProtocolError``, never a silently mis-framed message."""

    def test_negative_content_length_is_a_protocol_error(self):
        assembler = http_mod._MessageAssembler()
        with pytest.raises(ProtocolError):
            assembler.feed(b"POST /a HTTP/1.0\r\nContent-Length: -3\r\n\r\nabcdefgh")

    @pytest.mark.parametrize(
        "length", ["+5", "5x", "²5"], ids=["sign", "junk", "superscript"]
    )
    def test_non_digit_content_length_is_a_protocol_error(self, length):
        assembler = http_mod._MessageAssembler()
        with pytest.raises(ProtocolError):
            assembler.feed(
                f"POST /a HTTP/1.0\r\nContent-Length: {length}\r\n\r\nabcde".encode("latin-1")
            )

    def test_server_answers_400_to_negative_content_length(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register("/a", lambda request: HttpResponse(200))
        replies: list[bytes] = []

        def on_connected(future):
            conn = future.result()
            conn.set_receiver(lambda connection, data: replies.append(bytes(data)))
            conn.send(b"POST /a HTTP/1.1\r\nContent-Length: -3\r\n\r\nabcdefgh")

        a.connect(b.local_address(), 80).add_done_callback(on_connected)
        sim.run()
        assert b"".join(replies).startswith(b"HTTP/1.0 400 ")
        assert server.requests_served == 0

    def test_lowercase_content_length_frames_the_body(self, sim, two_hosts):
        """Header names are case-insensitive: a ``content-length`` body is
        the request's own, not the head of the next request on the
        persistent connection."""
        a, b = two_hosts
        server = HttpServer(b, 80)
        seen: list[tuple[str, bytes]] = []
        server.register_prefix(
            "", lambda request: seen.append((request.path, request.body)) or HttpResponse(200)
        )
        raw_exchange(
            sim, a, b.local_address(),
            b"POST /a HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello"
            b"GET /b HTTP/1.1\r\n\r\n",
        )
        assert seen == [("/a", b"hello"), ("/b", b"")]

    def test_transfer_encoding_is_a_protocol_error(self):
        assembler = http_mod._MessageAssembler()
        with pytest.raises(ProtocolError):
            assembler.feed(b"POST /a HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n")

    def test_server_refuses_chunked_request_without_running_handler(self, sim, two_hosts):
        """A chunked body is not read as an empty one: the handler never
        runs, and the chunk lines are not parsed as a next request."""
        a, b = two_hosts
        server = HttpServer(b, 80)
        bodies: list[bytes] = []
        server.register(
            "/x", lambda request: bodies.append(request.body) or HttpResponse(200)
        )
        reply, conn = raw_exchange(
            sim, a, b.local_address(),
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.0 400 ")
        assert reply.count(b"HTTP/") == 1
        assert bodies == []
        assert server.requests_served == 0
        assert conn.state == Connection.CLOSED

    def test_pooled_client_aborts_on_negative_response_length(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register(
            "/a",
            lambda request: HttpResponse(
                200, headers={"Content-Length": "-3"}, body=b"abcdefgh"
            ),
        )
        client = HttpClient(a, REACTOR_INTERCHANGE)
        future = client.get(b.local_address(), 80, "/a")
        sim.run()
        assert isinstance(future.exception(), ProtocolError)
        assert len(client.open_connections()) == 0

    @pytest.mark.parametrize(
        "config", [None, REACTOR_INTERCHANGE], ids=["legacy", "modern"]
    )
    def test_non_ascii_status_code_is_a_protocol_error(self, sim, two_hosts, config):
        """``'²00'.isdigit()`` is true but ``int`` rejects it: the
        reply must fail the exchange, not raise out of the receiver."""
        a, b = two_hosts

        def on_connection(conn):
            conn.set_receiver(
                lambda connection, data: connection.send(
                    b"HTTP/1.1 \xb200 OK\r\nConnection: keep-alive\r\n"
                    b"Content-Length: 0\r\n\r\n"
                )
            )

        b.listen(80, on_connection)
        client = HttpClient(a, config)
        future = client.get(b.local_address(), 80, "/a")
        sim.run()
        assert isinstance(future.exception(), ProtocolError)


class TestHeadGrammar:
    """RFC 7230 §3.2.4 and §3.1.1: header lines and request lines a
    server must reject are a ``ProtocolError``, answered with 400 and a
    closed connection before any handler runs."""

    BAD_HEADER_LINES = {
        # Whitespace before the colon: the request-smuggling shape.
        "space_before_colon": b"Content-Length : 5",
        # An obs-fold continuation of the previous line, not a header.
        "obs_fold": b"\tcontinued: y",
        "empty_name": b": empty",
    }

    @pytest.mark.parametrize("line", BAD_HEADER_LINES.values(), ids=BAD_HEADER_LINES.keys())
    def test_bad_header_line_is_a_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            _parse_head(b"POST /x HTTP/1.1\r\nX-A: 1\r\n" + line)

    @pytest.mark.parametrize("line", BAD_HEADER_LINES.values(), ids=BAD_HEADER_LINES.keys())
    def test_server_answers_400_to_bad_header_line(self, sim, two_hosts, line):
        a, b = two_hosts
        server = HttpServer(b, 80)
        bodies: list[bytes] = []
        server.register(
            "/x", lambda request: bodies.append(request.body) or HttpResponse(200)
        )
        reply, conn = raw_exchange(
            sim, a, b.local_address(),
            b"POST /x HTTP/1.1\r\nX-A: 1\r\n" + line + b"\r\n\r\nhello",
        )
        assert reply.startswith(b"HTTP/1.0 400 ")
        assert bodies == []
        assert server.requests_served == 0
        assert conn.state == Connection.CLOSED

    @pytest.mark.parametrize(
        "request_line",
        [
            b"POST  /x HTTP/1.1",
            b"POST /x  HTTP/1.1",
            b" /x HTTP/1.1",
            b"POST /x HTTP/11",
            b"POST /x HTTP/1.x",
            b"POST /x http/1.1",
        ],
        ids=["empty_target", "space_in_version", "empty_method", "no_dot", "letter", "case"],
    )
    def test_server_answers_400_to_malformed_request_line(
        self, sim, two_hosts, request_line
    ):
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register_prefix("", lambda request: HttpResponse(200))
        reply, conn = raw_exchange(
            sim, a, b.local_address(), request_line + b"\r\nContent-Length: 0\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.0 400 ")
        assert server.requests_served == 0
        assert conn.state == Connection.CLOSED
