"""Tests for the RMI-like invocation layer."""

import pytest

from repro.errors import JiniError
from repro.jini.rmi import RemoteRef, RmiRuntime
from repro.net.addressing import NodeAddress


class Counter:
    def __init__(self):
        self.value = 0

    def increment(self, by=1):
        self.value += by
        return self.value

    def get(self):
        return self.value

    def explode(self):
        raise RuntimeError("kaboom")

    def _private(self):
        return "secret"


@pytest.fixture
def runtimes(sim, two_hosts):
    a, b = two_hosts
    return sim, RmiRuntime(a, 1099), RmiRuntime(b, 1099)


class TestRemoteRef:
    def test_wire_roundtrip(self):
        ref = RemoteRef(NodeAddress("jini-eth", 2), 1099, 7, ("a.B", "c.D"))
        restored = RemoteRef.from_wire(ref.to_wire())
        assert restored == ref
        assert restored.interfaces == ("a.B", "c.D")

    def test_is_wire_ref(self):
        ref = RemoteRef(NodeAddress("s", 1), 1, 1)
        assert RemoteRef.is_wire_ref(ref.to_wire())
        assert not RemoteRef.is_wire_ref({"address": "s/1"})
        assert not RemoteRef.is_wire_ref("nope")

    def test_from_wire_rejects_garbage(self):
        with pytest.raises(JiniError):
            RemoteRef.from_wire({"random": True})

    def test_refs_hashable_and_comparable(self):
        a = RemoteRef(NodeAddress("s", 1), 1099, 5)
        b = RemoteRef(NodeAddress("s", 1), 1099, 5, ("iface",))
        c = RemoteRef(NodeAddress("s", 1), 1099, 6)
        assert a == b  # interfaces don't affect identity
        assert a != c
        assert len({a, b, c}) == 2


class TestInvocation:
    def test_basic_call(self, runtimes):
        sim, client, server = runtimes
        ref = server.export(Counter())
        assert sim.run_until_complete(client.call(ref, "increment", [5])) == 5
        assert sim.run_until_complete(client.call(ref, "get", [])) == 5

    def test_remote_exception_propagates(self, runtimes):
        sim, client, server = runtimes
        ref = server.export(Counter())
        with pytest.raises(JiniError, match="kaboom"):
            sim.run_until_complete(client.call(ref, "explode", []))

    def test_unknown_method_rejected(self, runtimes):
        sim, client, server = runtimes
        ref = server.export(Counter())
        with pytest.raises(JiniError, match="no remote method"):
            sim.run_until_complete(client.call(ref, "missing", []))

    def test_private_method_not_remotely_callable(self, runtimes):
        sim, client, server = runtimes
        ref = server.export(Counter())
        with pytest.raises(JiniError):
            sim.run_until_complete(client.call(ref, "_private", []))

    def test_unexported_object_rejected(self, runtimes):
        sim, client, server = runtimes
        ref = server.export(Counter())
        server.unexport(ref)
        with pytest.raises(JiniError, match="no exported object"):
            sim.run_until_complete(client.call(ref, "get", []))

    def test_connection_reuse_across_calls(self, runtimes):
        """JRMP-style connection caching: many calls, one connection."""
        sim, client, server = runtimes
        ref = server.export(Counter())
        for _ in range(10):
            sim.run_until_complete(client.call(ref, "increment", [1]))
        assert client.stack.open_connections == 1

    def test_concurrent_calls_multiplexed(self, runtimes):
        sim, client, server = runtimes
        ref = server.export(Counter())
        futures = [client.call(ref, "increment", [1]) for _ in range(5)]
        results = sorted(sim.run_until_complete(f) for f in futures)
        assert results == [1, 2, 3, 4, 5]

    def test_future_returning_method_resolves_asynchronously(self, runtimes):
        sim, client, server = runtimes
        from repro.net.simkernel import SimFuture

        class Slow:
            def work(self):
                future = SimFuture()
                sim.schedule(3.0, future.set_result, "done")
                return future

        ref = server.export(Slow())
        t0 = sim.now
        assert sim.run_until_complete(client.call(ref, "work", [])) == "done"
        assert sim.now - t0 >= 3.0

    def test_two_exported_objects_are_distinct(self, runtimes):
        sim, client, server = runtimes
        ref_a = server.export(Counter())
        ref_b = server.export(Counter())
        sim.run_until_complete(client.call(ref_a, "increment", [10]))
        assert sim.run_until_complete(client.call(ref_b, "get", [])) == 0

    def test_one_way_swallows_errors(self, runtimes):
        sim, client, server = runtimes
        ref = server.export(Counter())
        client.one_way(ref, "explode", [])
        sim.run()  # must not raise anywhere

    def test_rmi_payload_is_binary_compact(self, runtimes):
        """Monitor check: RMI frames carry the 0xACED stream magic and are
        far smaller than equivalent SOAP."""
        from repro.net.monitor import TrafficMonitor
        from repro.soap.envelope import build_request

        sim, client, server = runtimes
        segment = client.stack.node.interfaces[0].segment
        monitor = TrafficMonitor().watch(segment)
        ref = server.export(Counter())
        sim.run_until_complete(client.call(ref, "increment", [1]))
        rmi_bytes = monitor.stats["tcp"].bytes
        soap_equivalent = len(build_request("increment", [1]))
        assert 0 < rmi_bytes  # traffic flowed
        # One whole RMI exchange (incl. handshake) is comparable to just
        # the SOAP request body alone.
        assert rmi_bytes < 4 * soap_equivalent
