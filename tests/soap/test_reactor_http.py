"""Tests for the modern wire's reactor HTTP path: pipelined exchanges over
one pooled connection, vectored writes on both sides of a keep-alive
connection, server shutdown answering held exchanges with 503, and the
idle-heap pool eviction."""

import pytest

from repro.errors import TransportError
from repro.net.monitor import TrafficMonitor
from repro.net.simkernel import SimFuture
from repro.net.transport import PROTO_TCPV
from repro.soap import http as http_mod
from repro.soap.http import (
    HttpClient,
    HttpResponse,
    HttpServer,
    InterchangeConfig,
)

from tests.conftest import make_host

#: The modern wire at depth 8.  Plain HTTP clients send no negotiation
#: headers, so wire assertions stay readable in tests that inspect traffic.
PIPELINED = InterchangeConfig(modern=True, pipeline_depth=8)


@pytest.fixture
def reactor_pair(sim, two_hosts):
    a, b = two_hosts
    server = HttpServer(b, 80)
    client = HttpClient(a, PIPELINED)
    return sim, server, client, b.local_address()


def warm_up(sim, client, address, server):
    """One completed exchange: proves keep-alive so later requests pipeline."""
    server.register("/warmup", lambda req: HttpResponse(200))
    response = sim.run_until_complete(client.get(address, 80, "/warmup"))
    assert response.status == 200


class TestPipelining:
    def test_overlapped_exchanges_share_one_connection(self, reactor_pair):
        sim, server, client, address = reactor_pair

        def slow(request):
            future = SimFuture()
            sim.schedule(1.0, future.set_result, HttpResponse(200, body=request.path.encode()))
            return future

        server.register_prefix("/slow/", slow)
        warm_up(sim, client, address, server)
        t0 = sim.now
        futures = [client.get(address, 80, f"/slow/{n}") for n in range(6)]
        results = [sim.run_until_complete(f) for f in futures]
        assert [r.body for r in results] == [f"/slow/{n}".encode() for n in range(6)]
        # Pipelined: all six 1-second handlers ran concurrently on one
        # connection instead of serially (~6s) or per-connection.
        assert sim.now - t0 < 2.0
        assert len(client.open_connections()) == 1
        assert server.keepalive_reuses >= 6

    def test_responses_flush_in_request_order(self, reactor_pair):
        sim, server, client, address = reactor_pair
        resolvers = {}

        def parked(request):
            future = SimFuture()
            resolvers[request.path] = future
            return future

        server.register_prefix("/p/", parked)
        warm_up(sim, client, address, server)
        first = client.get(address, 80, "/p/first")
        second = client.get(address, 80, "/p/second")
        # run_for, not run: a full drain would fire the exchange watchdog
        # on the deliberately-parked handlers.
        sim.run_for(1.0)
        # Resolve out of order: the second handler answers before the first.
        resolvers["/p/second"].set_result(HttpResponse(200, body=b"2nd"))
        sim.run_for(1.0)
        assert not first.done() and not second.done()  # head-of-line holds
        resolvers["/p/first"].set_result(HttpResponse(200, body=b"1st"))
        sim.run_for(1.0)
        assert first.result().body == b"1st"
        assert second.result().body == b"2nd"

    def test_first_exchange_on_fresh_connection_never_pipelines(self, reactor_pair):
        """Until the peer proves keep-alive, depth stays 1 — a legacy
        server must never see overlapped requests."""
        sim, server, client, address = reactor_pair
        concurrent = {"now": 0, "peak": 0}

        def tracking(request):
            concurrent["now"] += 1
            concurrent["peak"] = max(concurrent["peak"], concurrent["now"])
            future = SimFuture()

            def answer():
                concurrent["now"] -= 1
                future.set_result(HttpResponse(200))

            sim.schedule(0.5, answer)
            return future

        server.register_prefix("/t/", tracking)
        futures = [client.get(address, 80, f"/t/{n}") for n in range(4)]
        sim.run_until_complete(futures[0])
        assert concurrent["peak"] == 1  # unproven peer: strictly serial
        for future in futures[1:]:
            sim.run_until_complete(future)
        assert concurrent["peak"] > 1  # proof arrived: the rest overlapped

    def test_legacy_close_server_degrades_to_serial(self, sim, two_hosts):
        """A reactor client against a server that answers Connection:
        close completes every exchange, one connection each."""
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register(
            "/a", lambda req: HttpResponse(200, headers={"Connection": "close"})
        )
        client = HttpClient(a, PIPELINED)
        futures = [client.get(b.local_address(), 80, "/a") for _ in range(3)]
        for future in futures:
            assert sim.run_until_complete(future).status == 200
        sim.run()
        assert client.stack.open_connections == 0


class TestVectoredWire:
    def test_pipelined_burst_rides_vectored_frames(self, sim, net, eth):
        monitor = TrafficMonitor(trace_enabled=True).watch(eth)
        a = make_host(net, "client", eth)
        b = make_host(net, "server", eth)
        server = HttpServer(b, 80)
        server.register_prefix("/b/", lambda req: HttpResponse(200, body=b"ok"))
        client = HttpClient(a, PIPELINED)
        address = b.local_address()
        warm_up(sim, client, address, server)
        monitor.reset()
        futures = [client.get(address, 80, f"/b/{n}") for n in range(5)]
        for future in futures:
            assert sim.run_until_complete(future).status == 200
        # The same-instant burst coalesced client-side, and the server
        # coalesced its responses on the keep-alive connection too.
        assert monitor.frames_coalesced > 0
        assert any(entry.protocol == PROTO_TCPV for entry in monitor.trace)

    def test_legacy_client_wire_stays_plain(self, sim, net, eth):
        monitor = TrafficMonitor(trace_enabled=True).watch(eth)
        a = make_host(net, "client", eth)
        b = make_host(net, "server", eth)
        server = HttpServer(b, 80)
        server.register("/a", lambda req: HttpResponse(200, body=b"ok"))
        client = HttpClient(a)  # legacy config: no keep-alive, no reactor wire
        for _ in range(3):
            assert sim.run_until_complete(client.get(b.local_address(), 80, "/a")).ok
        assert monitor.frames_coalesced == 0
        assert not any(entry.protocol == PROTO_TCPV for entry in monitor.trace)


class TestServerShutdown:
    def test_close_answers_parked_handlers_with_503(self, reactor_pair):
        sim, server, client, address = reactor_pair
        server.register("/held", lambda req: SimFuture())  # never resolves
        warm_up(sim, client, address, server)
        held = client.get(address, 80, "/held")
        sim.run_for(1.0)  # not run(): a drain would fire the watchdog
        assert not held.done()
        assert server.stack.reactor.parked == 1
        server.close()
        sim.run_for(1.0)
        response = held.result()
        assert response.status == 503
        assert server.stack.reactor.parked == 0

    def test_node_kill_fails_held_exchange_cleanly(self, reactor_pair):
        sim, server, client, address = reactor_pair
        server.register("/held", lambda req: SimFuture())
        warm_up(sim, client, address, server)
        held = client.get(address, 80, "/held")
        sim.run_for(1.0)
        server.stack.shutdown()  # node decommission, not a polite close
        sim.run_for(1.0)
        with pytest.raises(TransportError):
            held.result()
        assert server.stack.reactor.parked == 0
        assert server.stack.open_connections == 0

    def test_late_handler_resolution_after_close_is_harmless(self, reactor_pair):
        sim, server, client, address = reactor_pair
        parked = []

        def handler(request):
            future = SimFuture()
            parked.append(future)
            return future

        server.register("/held", handler)
        warm_up(sim, client, address, server)
        held = client.get(address, 80, "/held")
        sim.run_for(1.0)
        server.close()
        sim.run_for(1.0)
        assert held.result().status == 503
        # The original handler future resolving later must not answer the
        # already-503'd slot a second time.
        parked[0].set_result(HttpResponse(200, body=b"too late"))
        sim.run_for(1.0)
        assert held.result().status == 503


class TestIdleHeapEviction:
    """Satellite: pool idle eviction indexed by expiry deadline.  Finding
    the next victim pops the heap head — O(evicted + stale records) — and
    never scans the full pool."""

    def _filled_client(self, sim, net, eth, monkeypatch, destinations):
        monkeypatch.setattr(http_mod, "POOL_DESTINATIONS", destinations)
        # Nothing idles out while the pool fills: only the cap evicts.
        monkeypatch.setattr(http_mod, "IDLE_TIMEOUT", 1e9)
        server_stack = make_host(net, "server", eth)
        client_stack = make_host(net, "client", eth)
        ports = list(range(8000, 8000 + destinations))
        for port in ports + [9000]:  # 9000: the over-cap destination
            HttpServer(server_stack, port).register(
                "/a", lambda req: HttpResponse(200)
            )
        client = HttpClient(client_stack, InterchangeConfig(modern=True))
        address = server_stack.local_address()
        for port in ports:
            assert sim.run_until_complete(client.get(address, port, "/a")).ok
        return client, address, ports

    def test_thousand_idle_connections_evict_in_constant_pops(
        self, sim, net, eth, monkeypatch
    ):
        client, address, ports = self._filled_client(sim, net, eth, monkeypatch, 1000)
        assert len(client.open_connections()) == 1000

        import heapq as real_heapq

        pops = {"count": 0}

        class CountingHeapq:
            heappush = staticmethod(real_heapq.heappush)

            @staticmethod
            def heappop(heap):
                pops["count"] += 1
                return real_heapq.heappop(heap)

        monkeypatch.setattr(http_mod, "heapq", CountingHeapq)
        # The 1001st destination must evict exactly one entry — the first
        # to go idle — by popping the heap head, not scanning 1000 entries.
        assert sim.run_until_complete(client.get(address, 9000, "/a")).status == 200
        assert pops["count"] == 1
        assert len(client.open_connections()) == 1000
        assert client.pooled_evictions == 1
        assert (address, ports[0]) not in client._pool

    def test_stale_records_skip_without_scanning_pool(
        self, sim, net, eth, monkeypatch
    ):
        client, address, ports = self._filled_client(sim, net, eth, monkeypatch, 50)
        # Re-use ten entries: their old idle records go stale (generation
        # bump) and each finishes by pushing one fresh record.
        for port in ports[:10]:
            assert sim.run_until_complete(client.get(address, port, "/a")).ok

        import heapq as real_heapq

        pops = {"count": 0}

        class CountingHeapq:
            heappush = staticmethod(real_heapq.heappush)

            @staticmethod
            def heappop(heap):
                pops["count"] += 1
                return real_heapq.heappop(heap)

        monkeypatch.setattr(http_mod, "heapq", CountingHeapq)
        assert sim.run_until_complete(client.get(address, 9000, "/a")).status == 200
        # Victim search popped the 10 stale head records plus 1 live one;
        # stale records are discarded permanently (amortised O(1) each).
        assert pops["count"] == 11
        assert client.pooled_evictions == 1
        # The evicted entry is the oldest *currently idle* one: ports[10],
        # since ports[0..9] re-idled later with fresher deadlines.
        assert (address, ports[10]) not in client._pool
        assert (address, ports[0]) in client._pool

    def test_busy_entries_are_never_evicted(self, sim, net, eth, monkeypatch):
        client, address, ports = self._filled_client(sim, net, eth, monkeypatch, 3)
        # Make the oldest destination busy again, then immediately demand
        # a fresh destination: the busy entry's idle record is stale, so
        # the next-oldest idle one is evicted instead.
        busy = client.get(address, ports[0], "/a")
        fresh = client.get(address, 9000, "/a")
        sim.run_until_complete(busy)
        sim.run_until_complete(fresh)
        assert (address, ports[0]) in client._pool
        assert (address, ports[1]) not in client._pool
