"""What each kind of SOAP exchange puts in its HTTP head.

A request travels terse only after the peer has echoed the ``modern``
token, so a terse request carries nothing beyond its framing: the body
names the operation (no ``SOAPAction``) and the server gzips terse
answers by itself (no ``Accept-Encoding``).  Verbose requests — the 2002
wire and the modern negotiation request — keep their headers.
"""

from __future__ import annotations

import pytest

from repro.errors import SoapError, SoapFault
from repro.obs import Observability
from repro.soap.client import SoapClient
from repro.soap.http import COMPRESS_MIN_BYTES, REACTOR_INTERCHANGE
from repro.soap.server import SOAP_PATH_PREFIX, SoapServer

#: Long enough that any envelope carrying it clears the gzip floor.
FAT = "reading=21.5C;battery=97%;" * 20


def serve_calc(stack):
    """A ``Calc`` service that echoes (``echo``) or faults (anything
    else), and the list of requests it receives, as parsed off the wire."""
    server = SoapServer(stack)

    def calc(operation, args):
        if operation == "echo":
            return args[0]
        raise SoapError(str(args[0]))

    server.register_service("Calc", calc)
    requests = []

    def recording(request):
        requests.append(request)
        return server._handle(request)

    # An exact-path route wins over the server's ``/soap/`` prefix route.
    server.http.register(SOAP_PATH_PREFIX + "Calc", recording)
    return requests


@pytest.fixture
def soap(sim, two_hosts):
    """A recording ``Calc`` server and a modern client on the other host."""
    a, b = two_hosts
    requests = serve_calc(b)
    return sim, SoapClient(a, REACTOR_INTERCHANGE), b.local_address(), requests


def call(sim, client, address, operation, arg, **kwargs):
    """Run one call; returns (outcome, response) where the outcome is the
    value or the raised exception and the response is the HTTP answer as
    it arrived, before the client decoded it."""
    responses = []
    post = client.http.post

    def recording_post(*args, **post_kwargs):
        future = post(*args, **post_kwargs)
        future.add_done_callback(lambda done: responses.append(done.result()))
        return future

    client.http.post = recording_post
    try:
        outcome = sim.run_until_complete(
            client.call(address, "Calc", operation, [arg], **kwargs)
        )
    except SoapFault as fault:
        outcome = fault
    finally:
        client.http.post = post
    return outcome, responses[0]


def negotiated(soap):
    sim, client, address, requests = soap
    call(sim, client, address, "echo", "hello")
    assert (address, 8080) in client.modern_peers
    requests.clear()
    return sim, client, address, requests


class TestRequestHeaders:
    def test_legacy_request(self, sim, two_hosts):
        a, b = two_hosts
        requests = serve_calc(b)
        assert call(sim, SoapClient(a), b.local_address(), "echo", FAT)[0] == FAT
        [request] = requests
        assert request.version == "HTTP/1.0"
        assert list(request.headers) == [
            "Content-Type", "SOAPAction", "Content-Length", "Connection",
        ]
        assert request.header("SOAPAction") == '"Calc#echo"'
        assert request.header("Connection") == "close"

    def test_modern_negotiation_request(self, soap):
        sim, client, address, requests = soap
        call(sim, client, address, "echo", "hello")
        [request] = requests
        assert list(request.headers) == [
            "Content-Type", "SOAPAction", "X-Interchange", "Accept-Encoding",
            "Content-Length",
        ]

    def test_terse_request_below_the_floor(self, soap):
        sim, client, address, requests = negotiated(soap)
        call(sim, client, address, "echo", "hi")
        [request] = requests
        assert len(request.body) < COMPRESS_MIN_BYTES
        assert list(request.headers) == ["Content-Type", "Content-Length"]

    def test_terse_request_past_the_floor(self, soap):
        sim, client, address, requests = negotiated(soap)
        assert call(sim, client, address, "echo", FAT)[0] == FAT
        [request] = requests
        assert list(request.headers) == [
            "Content-Type", "Content-Encoding", "Content-Length",
        ]
        assert request.header("Content-Encoding") == "gzip"

    def test_traced_terse_request(self, soap):
        sim, client, address, requests = negotiated(soap)
        obs = Observability(sim)
        client.observe(obs, "a")
        root = obs.tracer.start_span("root")
        call(sim, client, address, "echo", "hi", trace=root.context)
        [request] = requests
        assert list(request.headers) == ["Content-Type", "X-Trace", "Content-Length"]


class TestTerseAnswers:
    """The SOAP server gzips a terse answer past the floor itself: the
    terse request that asked for it sent no ``Accept-Encoding``."""

    def test_answer_past_the_floor_arrives_gzipped(self, soap):
        sim, client, address, _requests = negotiated(soap)
        value, response = call(sim, client, address, "echo", FAT)
        assert value == FAT
        assert response.header("Content-Encoding") == "gzip"

    def test_answer_below_the_floor_arrives_plain(self, soap):
        sim, client, address, _requests = negotiated(soap)
        value, response = call(sim, client, address, "echo", "hi")
        assert value == "hi"
        assert response.header("Content-Encoding") == ""

    def test_fault_past_the_floor_arrives_gzipped(self, soap):
        sim, client, address, _requests = negotiated(soap)
        fault, response = call(sim, client, address, "fail", FAT)
        assert isinstance(fault, SoapFault)
        assert FAT in fault.faultstring
        assert response.status == 500
        assert response.header("Content-Encoding") == "gzip"

    def test_fault_below_the_floor_arrives_plain(self, soap):
        sim, client, address, _requests = negotiated(soap)
        fault, response = call(sim, client, address, "fail", "no")
        assert isinstance(fault, SoapFault)
        assert response.header("Content-Encoding") == ""


class TestVerboseReplies:
    def test_reply_to_request_without_accept_encoding_is_never_gzipped(
        self, sim, two_hosts
    ):
        a, b = two_hosts
        serve_calc(b)
        client = SoapClient(a)
        value, response = call(sim, client, b.local_address(), "echo", FAT)
        assert value == FAT
        assert len(response.body) >= COMPRESS_MIN_BYTES
        assert response.header("Content-Encoding") == ""

    def test_negotiation_reply_follows_accept_encoding(self, soap):
        sim, client, address, _requests = soap
        value, response = call(sim, client, address, "echo", FAT)
        assert value == FAT
        assert response.header("Content-Encoding") == "gzip"
