"""Tests for the SOAP RPC client/server pair."""

import pytest

from repro.errors import SoapFault
from repro.net.simkernel import SimFuture
from repro.soap.client import SoapClient
from repro.soap.server import SoapServer


@pytest.fixture
def rpc(sim, two_hosts):
    a, b = two_hosts
    server = SoapServer(b)

    def calc(operation, args):
        if operation == "add":
            return args[0] + args[1]
        if operation == "divide":
            return args[0] / args[1]
        if operation == "echo":
            return args[0]
        raise ValueError(f"no operation {operation}")

    server.register_service("Calc", calc)
    client = SoapClient(a)
    return sim, server, client, b.local_address()


class TestRpc:
    def test_simple_call(self, rpc):
        sim, server, client, address = rpc
        assert sim.run_until_complete(client.call(address, "Calc", "add", [40, 2])) == 42
        assert server.calls_handled == 1
        assert client.calls_sent == 1

    def test_structured_arguments_and_results(self, rpc):
        sim, server, client, address = rpc
        payload = {"device": "vcr", "commands": ["play", "stop"], "level": 0.5}
        result = sim.run_until_complete(client.call(address, "Calc", "echo", [payload]))
        assert result == payload

    def test_remote_exception_becomes_fault(self, rpc):
        sim, server, client, address = rpc
        with pytest.raises(SoapFault) as excinfo:
            sim.run_until_complete(client.call(address, "Calc", "frobnicate", [1]))
        assert "no operation" in excinfo.value.faultstring
        assert server.faults_returned == 1

    def test_python_error_in_dispatcher_becomes_fault(self, rpc):
        sim, server, client, address = rpc
        with pytest.raises(SoapFault):
            sim.run_until_complete(client.call(address, "Calc", "divide", [1, 0]))

    def test_unknown_service_faults(self, rpc):
        sim, server, client, address = rpc
        with pytest.raises(SoapFault) as excinfo:
            sim.run_until_complete(client.call(address, "Ghost", "op", []))
        assert "no such service" in excinfo.value.faultstring

    def test_async_dispatcher(self, rpc):
        sim, server, client, address = rpc

        def deferred(operation, args):
            future = SimFuture()
            sim.schedule(2.0, future.set_result, args[0] * 2)
            return future

        server.register_service("Async", deferred)
        assert sim.run_until_complete(client.call(address, "Async", "double", [21])) == 42

    def test_async_dispatcher_failure_becomes_fault(self, rpc):
        sim, server, client, address = rpc

        def deferred(operation, args):
            future = SimFuture()
            sim.schedule(1.0, future.set_exception, RuntimeError("late boom"))
            return future

        server.register_service("AsyncFail", deferred)
        with pytest.raises(SoapFault, match="late boom"):
            sim.run_until_complete(client.call(address, "AsyncFail", "op", []))

    def test_multiple_services_one_server(self, rpc):
        sim, server, client, address = rpc
        server.register_service("Other", lambda op, args: "other:" + op)
        assert sim.run_until_complete(client.call(address, "Other", "ping", [])) == "other:ping"
        assert sim.run_until_complete(client.call(address, "Calc", "add", [1, 1])) == 2
        assert server.service_names == ["Calc", "Other"]

    def test_duplicate_service_registration_rejected(self, rpc):
        _, server, _, _ = rpc
        with pytest.raises(Exception):
            server.register_service("Calc", lambda op, args: None)

    def test_call_latency_reflects_handshake_and_payload(self, rpc):
        """SOAP's cost is visible: one call takes multiple network RTTs."""
        sim, server, client, address = rpc
        t0 = sim.now
        sim.run_until_complete(client.call(address, "Calc", "add", [1, 2]))
        elapsed = sim.now - t0
        assert elapsed > 0.001  # more than a millisecond of virtual time
