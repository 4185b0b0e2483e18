"""Stateful property testing of the bookkeeping cores: the lease table,
the VSR directory and the VSR client's cache.  Hypothesis drives arbitrary
interleavings of the public operations against a plain-Python model."""

from typing import NamedTuple

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import LeaseExpiredError, ServiceNotFoundError, SoapFault
from repro.core.interface import simple_interface
from repro.core.shard import FederationConfig, FederationRouting, HashRing, ReplicaEndpoint
from repro.core.vsr import NEGATIVE_TTL, UddiSoapService, VsrClient, VsrDirectory
from repro.jini.lease import LeaseTable
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.soap.server import SoapServer

from tests.conftest import make_host


class LeaseTableMachine(RuleBasedStateMachine):
    """The lease table must agree with a model of {id: expiry} at all
    virtual times, under any interleaving of grant/renew/cancel/advance."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.table = LeaseTable(self.sim, max_duration=50.0)
        self.model: dict[int, float] = {}

    leases = Bundle("leases")

    @rule(target=leases, duration=st.floats(min_value=0.1, max_value=100.0))
    def grant(self, duration):
        lease = self.table.grant(duration)
        self.model[lease.lease_id] = self.sim.now + min(duration, 50.0)
        return lease.lease_id

    @rule(lease_id=leases, duration=st.floats(min_value=0.1, max_value=100.0))
    def renew(self, lease_id, duration):
        alive_in_model = self.model.get(lease_id, -1.0) > self.sim.now
        try:
            self.table.renew(lease_id, duration)
            assert alive_in_model, "renewed a lease the model says is dead"
            self.model[lease_id] = self.sim.now + min(duration, 50.0)
        except LeaseExpiredError:
            assert not alive_in_model, "refused to renew a live lease"
            self.model.pop(lease_id, None)

    @rule(lease_id=leases)
    def cancel(self, lease_id):
        self.table.cancel(lease_id)
        self.model.pop(lease_id, None)

    @rule(amount=st.floats(min_value=0.0, max_value=60.0))
    def advance(self, amount):
        self.sim.run_for(amount)
        self.model = {
            lease_id: expiry
            for lease_id, expiry in self.model.items()
            if expiry > self.sim.now
        }

    @invariant()
    def liveness_agrees_with_model(self):
        for lease_id, expiry in self.model.items():
            assert self.table.is_live(lease_id) == (expiry > self.sim.now)


class VsrDirectoryMachine(RuleBasedStateMachine):
    """Publish/withdraw/find must behave like a dict keyed by service."""

    def __init__(self):
        super().__init__()
        self.directory = VsrDirectory()
        self.model: dict[str, str] = {}  # service -> island

    names = st.sampled_from(["Alpha", "Beta", "Gamma", "Delta"])
    islands = st.sampled_from(["jini", "havi", "x10"])

    @rule(name=names, island=islands)
    def publish(self, name, island):
        interface = simple_interface(name, {"ping": ("->string",)})
        self.directory.publish(
            interface.to_wsdl(f"soap://b/1:8080/soap/{name}", {"island": island})
        )
        self.model[name] = island

    @rule(name=names)
    def withdraw(self, name):
        existed = self.directory.withdraw(name)
        assert existed == (name in self.model)
        self.model.pop(name, None)

    @rule(name=names)
    def find_by_name(self, name):
        if name in self.model:
            document = self.directory.find_by_name(name)
            assert document.context["island"] == self.model[name]
        else:
            try:
                self.directory.find_by_name(name)
                assert False, "found a withdrawn service"
            except ServiceNotFoundError:
                pass

    @rule(island=islands)
    def find_by_context(self, island):
        found = {d.service for d in self.directory.find({"island": island})}
        expected = {n for n, i in self.model.items() if i == island}
        assert found == expected

    @invariant()
    def count_matches_model(self):
        assert self.directory.service_count == len(self.model)
        assert set(self.directory.service_names()) == set(self.model)


SERVICES = ("A", "B")
ISLANDS = ("jini", "havi")
#: Virtual seconds a lookup waits before it starts: none, past the
#: negative TTL, or past the 30 s cache TTL too.
AGES = st.sampled_from([0.0, NEGATIVE_TTL + 0.1, 30.5])
#: What runs after a lookup starts: the kernel until the lookup is
#: answered, nothing (it stays in flight), or the kernel until the
#: directory has answered it while the reply is still on the wire.
THEN = st.sampled_from(["answer", "in flight", "served"])


def _gateway_key(island: str) -> str:
    return f"gw:{island}"


def _location(version: int) -> str:
    return f"loc{version}"


def _not_found(exc: BaseException) -> bool:
    return isinstance(exc, ServiceNotFoundError) or (
        isinstance(exc, SoapFault) and exc.detail == "ServiceNotFoundError"
    )


class _Key:
    """The model of one key: a service name or one island's gateway."""

    def __init__(self) -> None:
        #: Each version the directory answered for the key (None: absent).
        self.served: list[int | None] = []
        #: Where in ``served`` the key's latest lookup flight started.
        self.flight_from = 0
        #: Where ``served`` stood at each event that retired the client's
        #: entry for the key: its own writes, invalidate, forget_caches.
        self.retired_at: list[int] = []
        #: Versions below it are retired by this client's resolved writes.
        self.resolved_floor = 0
        #: Versions below it were gone when the directory last called the
        #: key not found to a current lookup.
        self.dead_below = 0
        #: This client's last write, once resolved and while no later one
        #: was issued: (expected version or None, outages, other writes).
        self.own: tuple[int | None, int, int] | None = None
        #: One of this client's writes failed: it may still land later.
        self.doubtful = False
        #: Writes by the other writer.
        self.other_writes = 0

    def retire(self) -> None:
        self.retired_at.append(len(self.served))


class _Watched(UddiSoapService):
    """The directory facade, logging what it answers for each key."""

    def __init__(self, soap_server: SoapServer, keys: dict[str, _Key]) -> None:
        super().__init__(soap_server)
        self.keys = keys

    def _dispatch(self, operation, args):
        if operation in ("find_by_name", "find_many"):
            names = [args[0]] if operation == "find_by_name" else list(args[0])
            held = set(self.directory.service_names())
            for name in map(str, names):
                version = None
                if name in held:
                    version = int(self.directory.find_by_name(name).context["v"])
                self.keys[name].served.append(version)
        elif operation == "list_gateways":
            gateways = self.directory.gateways()
            for island in ISLANDS:
                location = gateways.get(island)
                self.keys[_gateway_key(island)].served.append(
                    None if location is None else int(location[3:])
                )
        return super()._dispatch(operation, args)


class _Seen(NamedTuple):
    """What the model held for one key when a lookup started."""

    resolved_floor: int
    dead_below: int
    retires: int
    #: Where in ``served`` the flight that answers the lookup started.
    flight_from: int
    own: tuple[int | None, int, int] | None


class _Lookup:
    """A lookup the machine started, with the model as it stood then."""

    def __init__(self, machine: "VsrClientMachine", keys: list[str], future, flight: str) -> None:
        self.keys = keys
        self.future = future
        self.flight = flight  # "new", "joined" or "hit"
        self.version = machine.next_version
        self.seen = {}
        for key in keys:
            model = machine.keys[key]
            if flight == "new":
                model.flight_from = len(model.served)
            self.seen[key] = _Seen(
                model.resolved_floor,
                model.dead_below,
                len(model.retired_at),
                model.flight_from if flight != "hit" else len(model.served),
                model.own,
            )


class VsrClientMachine(RuleBasedStateMachine):
    """One :class:`VsrClient` over one directory, under every interleaving
    of writes by the client and by another writer, invalidations, lookups
    and listings left in flight, directory outages, ``forget_caches`` and
    time past either TTL.  Three invariants hold for every answer:

    1. it returns no document or gateway that this client retired (by a
       write, ``invalidate`` or ``forget_caches``), whether fresh,
       coalesced or degraded: after the retire, only a version the
       directory has answered since will do (for a lookup the retire
       caught in flight, one it answered to that flight), and a write
       that resolved before the lookup started rules out every older
       version;
    2. it returns no document older than the directory's last "not
       found" to a current lookup of the name;
    3. while the directory stays up, a lookup started after this client's
       write resolved sees that write (unless another writer wrote the
       key since).
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        network = Network(self.sim)
        segment = network.create_segment(EthernetSegment, "eth0")
        self.server = make_host(network, "a", segment)
        self.keys = {key: _Key() for key in SERVICES}
        self.keys.update((_gateway_key(island), _Key()) for island in ISLANDS)
        self.uddi = _Watched(SoapServer(self.server), self.keys)
        endpoint = ReplicaEndpoint("directory", self.server.local_address(), 8080)
        routing = FederationRouting(HashRing(1), [[endpoint]], FederationConfig())
        self.client = VsrClient(
            make_host(network, "b", segment), routing, cache_ttl=30.0, lookup_deadline=2.0
        )
        self.next_version = 1
        self.up = True
        self.outages = 0
        self.lookups: list[_Lookup] = []

    def _new_version(self) -> int:
        self.next_version += 1
        return self.next_version - 1

    @initialize()
    def publish_and_read_every_service(self):
        for name in SERVICES:
            self.write(name, publish=True, own=True)
            self.lookup(name, after=0.0, then="answer")

    # -- writes -----------------------------------------------------------

    def _write(
        self, key: str, retired: list[str], floor: int, expected, own: bool,
        client_write, other_write,
    ) -> None:
        """One write of ``key``: by the other writer straight at the
        directory, or (``own``) through the client, which retires the
        client's entries for ``retired`` and runs to its end."""
        model = self.keys[key]
        if not own:
            other_write()
            model.other_writes += 1
            return
        model.own = None
        for name in retired:
            self.keys[name].retire()
        try:
            self.sim.run_until_complete(client_write(), timeout=10.0)
        except Exception:
            model.doubtful = True
            return
        model.resolved_floor = max(model.resolved_floor, floor)
        model.own = (expected, self.outages, model.other_writes)

    @rule(name=st.sampled_from(SERVICES), publish=st.booleans(), own=st.booleans())
    def write(self, name, publish, own):
        """Publish a new version of ``name``, or withdraw it: through the
        client (``own``), or as another writer straight at the directory."""
        if publish:
            version = self._new_version()
            interface = simple_interface(name, {"ping": ("->string",)})
            document = interface.to_wsdl(f"soap://b/1:8080/soap/{name}", {"v": str(version)})
            self._write(
                name, [name], version, version, own,
                lambda: self.client.publish(document),
                lambda: self.uddi.directory.publish(document),
            )
        else:
            self._write(
                name, [name], self.next_version, None, own,
                lambda: self.client.withdraw(name),
                lambda: self.uddi.directory.withdraw(name),
            )

    @rule(island=st.sampled_from(ISLANDS), register=st.booleans(), own=st.booleans())
    def write_gateway(self, island, register, own):
        """Register ``island`` at a new location, or unregister it; a
        client write retires the whole listing."""
        listing = [_gateway_key(i) for i in ISLANDS]
        if register:
            location = _location(self._new_version())
            floor = expected = int(location[3:])
            client_write = lambda: self.client.register_gateway(island, location)
            other_write = lambda: self.uddi.directory.register_gateway(island, location)
        else:
            floor, expected = self.next_version, None
            client_write = lambda: self.client.unregister_gateway(island)
            other_write = lambda: self.uddi.directory.unregister_gateway(island)
        self._write(_gateway_key(island), listing, floor, expected, own, client_write, other_write)

    @rule(name=st.one_of(st.none(), st.sampled_from(SERVICES)))
    def forget(self, name):
        """``invalidate(name)``, or ``forget_caches()`` when ``name`` is None."""
        if name is None:
            for model in self.keys.values():
                model.retire()
            self.client.forget_caches()
        else:
            self.keys[name].retire()
            self.client.invalidate(name)

    # -- lookups, awaited or left in flight --------------------------------

    def _run(self, future, keys: list[str], then: str) -> None:
        if then == "answer":
            try:
                self.sim.run_until_complete(future, timeout=10.0)
            except Exception:
                pass  # the invariant judges the answer
        elif then == "served":
            served = [len(self.keys[key].served) for key in keys]
            while not future.done() and served == [len(self.keys[key].served) for key in keys]:
                if not self.sim.step():
                    break

    @rule(name=st.sampled_from(SERVICES), after=AGES, then=THEN)
    def lookup(self, name, after, then):
        self.sim.run_for(after)
        remote, coalesced = self.client.remote_lookups, self.client.coalesced_lookups
        future = self.client.find_by_name(name)
        flight = (
            "new" if self.client.remote_lookups > remote
            else "joined" if self.client.coalesced_lookups > coalesced
            else "hit"
        )
        self.lookups.append(_Lookup(self, [name], future, flight))
        self._run(future, [name], then)

    @rule(then=THEN)
    def list_gateways(self, then):
        keys = [_gateway_key(i) for i in ISLANDS]
        coalesced = self.client.coalesced_lookups
        future = self.client.list_gateways()
        flight = "joined" if self.client.coalesced_lookups > coalesced else "new"
        self.lookups.append(_Lookup(self, keys, future, flight))
        self._run(future, keys, then)

    # -- the directory ------------------------------------------------------

    @precondition(lambda self: self.up)
    @rule()
    def directory_down(self):
        self.server.node.crash()
        self.up = False
        self.outages += 1

    @precondition(lambda self: not self.up)
    @rule()
    def directory_up(self):
        self.server.node.restart()
        self.up = True

    # -- the invariants ---------------------------------------------------

    @invariant()
    def answers_keep_the_rule(self):
        pending = []
        for lookup in self.lookups:
            if lookup.future.done():
                self._check(lookup)
            else:
                pending.append(lookup)
        self.lookups = pending

    def _check(self, lookup: _Lookup) -> None:
        exc = lookup.future.exception()
        if len(lookup.keys) == 1:
            (key,) = lookup.keys
            answers = {key: None}
            if exc is None:
                answers[key] = int(lookup.future.result().context["v"])
            elif _not_found(exc):
                exc = None
                model = self.keys[key]
                if lookup.flight == "new" and len(model.retired_at) == lookup.seen[key].retires:
                    model.dead_below = max(model.dead_below, lookup.version)
        else:
            answers = {key: None for key in lookup.keys}
            if exc is None:
                for island, location in lookup.future.result().items():
                    answers[_gateway_key(island)] = int(location[3:])
        for key, version in answers.items():
            self._check_key(lookup, key, None if exc is not None else version, exc)

    def _check_key(self, lookup: _Lookup, key: str, version, exc) -> None:
        model = self.keys[key]
        resolved_floor, dead_below, retires, flight_from, own = lookup.seen[key]
        if version is not None:
            assert version >= resolved_floor, (
                f"{key}: answered v{version}, retired by this client's write "
                f"that resolved before the lookup started (floor v{resolved_floor})"
            )
            if retires:
                assert version in model.served[model.retired_at[retires - 1]:], (
                    f"{key}: answered v{version}, which the directory has not "
                    f"answered since this client retired its entry"
                )
            if len(model.retired_at) > retires:
                assert version in model.served[flight_from:], (
                    f"{key}: answered v{version}, which the directory did not "
                    f"answer to the lookup's flight, retired while in flight"
                )
            assert version >= dead_below, (
                f"{key}: answered v{version}, though the directory has since "
                f"called it not found (everything below v{dead_below} is gone)"
            )
        if (
            own is not None
            and model.own is own
            and not model.doubtful
            and own[1] == self.outages
            and own[2] == model.other_writes
        ):
            assert exc is None, f"{key}: failed with the directory up: {exc!r}"
            assert version == own[0], (
                f"{key}: answered {version}, not this client's resolved write {own[0]}"
            )


TestLeaseTableStateful = LeaseTableMachine.TestCase
TestVsrDirectoryStateful = VsrDirectoryMachine.TestCase
TestVsrClientStateful = VsrClientMachine.TestCase
TestVsrClientStateful.settings = settings(deadline=None)
