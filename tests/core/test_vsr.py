"""Tests for the Virtual Service Repository."""

import gc

import pytest

from repro.errors import RepositoryError, ServiceNotFoundError, SoapFault
from repro.core.interface import simple_interface
from repro.core.shard import FederationConfig, FederationRouting, HashRing, ReplicaEndpoint
from repro.core.vsr import NEGATIVE_TTL, UddiSoapService, VsrClient, VsrDirectory
from repro.soap.server import SoapServer
from repro.soap.wsdl import WsdlDocument


def document(name="Svc", island="jini", **context):
    interface = simple_interface(name, {"ping": ("->string",)})
    full_context = {"island": island}
    full_context.update(context)
    return interface.to_wsdl(f"soap://backbone/1:8080/soap/{name}", full_context)


class TestDirectory:
    def test_publish_and_find(self):
        directory = VsrDirectory()
        directory.publish(document("A"))
        assert directory.find_by_name("A").service == "A"
        assert directory.service_count == 1

    def test_republish_replaces(self):
        directory = VsrDirectory()
        directory.publish(document("A", island="jini"))
        directory.publish(document("A", island="havi"))
        assert directory.service_count == 1
        assert directory.find_by_name("A").context["island"] == "havi"

    def test_withdraw(self):
        directory = VsrDirectory()
        directory.publish(document("A"))
        assert directory.withdraw("A") is True
        assert directory.withdraw("A") is False
        with pytest.raises(ServiceNotFoundError):
            directory.find_by_name("A")

    def test_context_filtering(self):
        directory = VsrDirectory()
        directory.publish(document("A", island="jini", room="kitchen"))
        directory.publish(document("B", island="havi", room="kitchen"))
        directory.publish(document("C", island="jini"))
        assert {d.service for d in directory.find({"island": "jini"})} == {"A", "C"}
        assert {d.service for d in directory.find({"room": "kitchen"})} == {"A", "B"}
        assert [d.service for d in directory.find({})] == ["A", "B", "C"]

    def test_unnamed_document_rejected(self):
        directory = VsrDirectory()
        with pytest.raises(RepositoryError):
            directory.publish(WsdlDocument(service="", location="soap://x/1:1/soap/x"))

    def test_change_listeners(self):
        directory = VsrDirectory()
        changes = []
        directory.on_change(lambda name, doc: changes.append((name, doc is not None)))
        directory.publish(document("A"))
        directory.withdraw("A")
        assert changes == [("A", True), ("A", False)]

    def test_gateway_registry(self):
        directory = VsrDirectory()
        directory.register_gateway("jini", "soap://b/1:8080/soap/_gateway")
        directory.register_gateway("havi", "soap://b/2:8080/soap/_gateway")
        assert set(directory.gateways()) == {"jini", "havi"}


@pytest.fixture
def uddi_setup(sim, two_hosts):
    server_stack, client_stack = two_hosts
    soap_server = SoapServer(server_stack)
    uddi = UddiSoapService(soap_server)
    directory = ReplicaEndpoint("directory", server_stack.local_address(), 8080)
    routing = FederationRouting(HashRing(1), [[directory]], FederationConfig())
    client = VsrClient(client_stack, routing, cache_ttl=30.0)
    return sim, uddi, client


class TestSoapFacade:
    def test_publish_find_roundtrip_over_the_wire(self, uddi_setup):
        sim, uddi, client = uddi_setup
        original = document("Laserdisc")
        sim.run_until_complete(client.publish(original))
        fetched = sim.run_until_complete(client.find_by_name("Laserdisc"))
        assert fetched == original

    def test_find_unknown_faults(self, uddi_setup):
        sim, uddi, client = uddi_setup
        with pytest.raises(SoapFault):
            sim.run_until_complete(client.find_by_name("Ghost"))

    def test_context_query_over_the_wire(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A", island="jini")))
        sim.run_until_complete(client.publish(document("B", island="x10")))
        docs = sim.run_until_complete(client.find({"island": "x10"}))
        assert [d.service for d in docs] == ["B"]

    def test_gateway_registration_over_the_wire(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.register_gateway("jini", "soap://b/9:8080/soap/_gateway"))
        gateways = sim.run_until_complete(client.list_gateways())
        assert gateways == {"jini": "soap://b/9:8080/soap/_gateway"}

    def test_client_cache_avoids_repeat_lookups(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A")))
        sim.run_until_complete(client.find_by_name("A"))
        assert client.remote_lookups == 1
        sim.run_until_complete(client.find_by_name("A"))
        assert client.remote_lookups == 1
        assert client.cache_hits == 1

    def test_cache_expires_after_ttl(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A")))
        sim.run_until_complete(client.find_by_name("A"))
        sim.run_for(31.0)
        sim.run_until_complete(client.find_by_name("A"))
        assert client.remote_lookups == 2

    def test_own_publish_invalidates_cache(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A", island="jini")))
        sim.run_until_complete(client.find_by_name("A"))
        sim.run_until_complete(client.publish(document("A", island="havi")))
        fetched = sim.run_until_complete(client.find_by_name("A"))
        assert fetched.context["island"] == "havi"

    def test_client_adds_no_cyclic_garbage(self, uddi_setup):
        # The client's per-call state must be freed by reference counting:
        # on a directory holding thousands of documents, garbage only the
        # cycle collector can free triggers full collections over it.  So
        # a lookup, like its bare SOAP exchange, leaves none.
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A")))
        endpoint = client.routing.replicas(0)[0]

        def garbage_of(run) -> int:
            gc.collect()
            gc.disable()
            try:
                run()
                return gc.collect()
            finally:
                gc.enable()

        def bare() -> None:
            sim.run_until_complete(
                client.soap.call(
                    endpoint.address, "UDDI", "find_by_name", ["A"], port=endpoint.port
                )
            )

        def lookup() -> None:
            client.invalidate("A")
            sim.run_until_complete(client.find_by_name("A"))

        assert garbage_of(bare) == 0
        assert garbage_of(lookup) == 0

    def test_explicit_invalidate(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A")))
        sim.run_until_complete(client.find_by_name("A"))
        client.invalidate("A")
        sim.run_until_complete(client.find_by_name("A"))
        assert client.remote_lookups == 2


class TestInFlightLookupAfterWrite:
    """A write or an invalidate that lands while a lookup is in flight
    retires that lookup: its pre-write answer still settles its own
    caller, but neither fills the cache nor serves later readers."""

    @staticmethod
    def answer_then(uddi, change):
        """Make the directory answer the next lookup with what it holds,
        then run ``change`` while that answer is on the wire."""
        answer = uddi.directory.find_by_name

        def find_by_name(service):
            document = answer(service)
            del uddi.directory.find_by_name
            change()
            return document

        uddi.directory.find_by_name = find_by_name

    def test_invalidate_retires_the_in_flight_lookup(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A", room="old")))
        late = []

        def another_writer_publishes():
            uddi.directory.publish(document("A", room="new"))
            client.invalidate("A")  # the on_change chain
            late.append(client.find_by_name("A"))

        self.answer_then(uddi, another_writer_publishes)
        first = sim.run_until_complete(client.find_by_name("A"))
        assert first.context["room"] == "old"
        assert sim.run_until_complete(late[0]).context["room"] == "new"
        assert client.coalesced_lookups == 0
        assert sim.run_until_complete(client.find_by_name("A")).context["room"] == "new"

    def test_own_publish_retires_the_in_flight_lookup(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A", room="old")))
        writes = []
        self.answer_then(
            uddi, lambda: writes.append(client.publish(document("A", room="new")))
        )
        first = sim.run_until_complete(client.find_by_name("A"))
        assert first.context["room"] == "old"
        sim.run_until_complete(writes[0])
        assert sim.run_until_complete(client.find_by_name("A")).context["room"] == "new"
        assert client.remote_lookups == 2

    def test_retired_lookup_serves_no_degraded_read(self, uddi_setup):
        # The directory is down and the cached copy is past its TTL: a
        # lookup still current would fall back to that copy, but one that
        # an invalidate retired must not bring the forgotten document back.
        sim, uddi, client = uddi_setup
        client.lookup_deadline = 2.0
        sim.run_until_complete(client.publish(document("A")))
        sim.run_until_complete(client.find_by_name("A"))
        sim.run_for(31.0)
        uddi.soap_server.close()
        lookup = client.find_by_name("A")
        client.invalidate("A")
        sim.run_for(10.0)
        assert lookup.done()
        assert lookup.exception() is not None
        assert client.degraded_reads == 0
        assert client.lookup_failures == 1

    def test_lookup_retired_before_its_batch_leaves_shares_the_request(self, uddi_setup):
        sim, uddi, client = uddi_setup
        sim.run_until_complete(client.publish(document("A")))
        first = client.find_by_name("A")
        client.invalidate("A")
        second = client.find_by_name("A")
        assert sim.run_until_complete(second).service == "A"
        assert first.result().service == "A"
        assert client.remote_lookups == 2
        assert uddi.directory.queries == 1  # one request on the wire


class TestNoResurrectionDuringAnOutage:
    """A degraded read serves only what the client still holds as
    current: nothing a write retired, and no document the directory has
    since called not found."""

    def test_listing_in_flight_does_not_outlive_an_unregister(self, uddi_setup):
        sim, uddi, client = uddi_setup
        client.lookup_deadline = 2.0
        sim.run_until_complete(
            client.register_gateway("jini", "soap://b/9:8080/soap/_gateway")
        )
        listing = client.list_gateways()
        sim.run_until_complete(client.unregister_gateway("jini"))
        sim.run_until_complete(listing)
        assert uddi.directory.gateways() == {}
        uddi.soap_server.close()
        outage = client.list_gateways()
        sim.run_for(10.0)
        assert outage.exception() is not None
        assert client.degraded_reads == 0

    def test_withdrawn_service_stays_withdrawn_during_an_outage(self, uddi_setup):
        sim, uddi, client = uddi_setup
        client.lookup_deadline = 2.0
        sim.run_until_complete(client.publish(document("A")))
        sim.run_until_complete(client.find_by_name("A"))
        uddi.directory.withdraw("A")  # another writer, no invalidate
        sim.run_for(31.0)
        with pytest.raises(SoapFault):
            sim.run_until_complete(client.find_by_name("A"))
        sim.run_for(NEGATIVE_TTL + 0.5)
        uddi.soap_server.close()
        outage = client.find_by_name("A")
        sim.run_for(10.0)
        assert outage.exception() is not None
        assert client.degraded_reads == 0
