"""Application layer of the Jini substrate.

:class:`JiniHost` bundles the per-device plumbing (node, transport stack,
RMI runtime).  :class:`JiniService` publishes a plain Python object as a
leased, discoverable service.  :class:`JiniClient` discovers the lookup
service and produces dynamic proxies whose method calls travel over RMI —
the "service proxy" programming model Jini is known for.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import JiniError, ServiceNotFoundError
from repro.net.network import Network
from repro.net.segment import Segment
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.jini.discovery import DiscoveryListener
from repro.jini.events import RemoteEvent
from repro.jini.lease import DEFAULT_LEASE_DURATION, Lease, LeaseRenewalManager
from repro.jini.lookup import ServiceItem, ServiceTemplate
from repro.jini.rmi import DEFAULT_RMI_PORT, RemoteRef, RmiRuntime


class JiniHost:
    """One Jini-capable device: node + stack + RMI runtime on a segment."""

    def __init__(
        self,
        network: Network,
        name: str,
        segment: Segment | str,
        rmi_port: int = DEFAULT_RMI_PORT,
    ) -> None:
        if isinstance(segment, str):
            segment = network.segment(segment)
        self.network = network
        self.segment = segment
        self.node = network.create_node(name)
        network.attach(self.node, segment)
        self.stack = TransportStack(self.node, network)
        self.runtime = RmiRuntime(self.stack, rmi_port)
        self.sim = network.sim

    @classmethod
    def adopt(
        cls,
        network: Network,
        node,
        stack: TransportStack,
        segment: Segment | str,
        rmi_port: int = DEFAULT_RMI_PORT,
    ) -> "JiniHost":
        """Wrap an *existing* node (e.g. a gateway already attached to the
        Jini island segment) as a Jini host, reusing its transport stack."""
        if isinstance(segment, str):
            segment = network.segment(segment)
        host = cls.__new__(cls)
        host.network = network
        host.segment = segment
        host.node = node
        host.stack = stack
        host.runtime = RmiRuntime(
            stack, rmi_port, advertise_address=stack.local_address(segment)
        )
        host.sim = network.sim
        return host

    @property
    def name(self) -> str:
        return self.node.name


class ServiceProxy:
    """Dynamic client-side proxy: attribute access yields remote methods
    that return :class:`SimFuture` results."""

    def __init__(self, runtime: RmiRuntime, ref: RemoteRef) -> None:
        object.__setattr__(self, "_runtime", runtime)
        object.__setattr__(self, "_ref", ref)

    @property
    def remote_ref(self) -> RemoteRef:
        return self._ref

    def __getattr__(self, name: str) -> Callable[..., SimFuture]:
        if name.startswith("_"):
            raise AttributeError(name)

        def remote_method(*args: Any) -> SimFuture:
            return self._runtime.call(self._ref, name, list(args))

        remote_method.__name__ = name
        return remote_method

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServiceProxy {self._ref!r}>"


class JiniService:
    """Publishes ``impl``'s public methods as a Jini service."""

    def __init__(
        self,
        host: JiniHost,
        impl: Any,
        interfaces: tuple[str, ...],
        attributes: dict[str, Any] | None = None,
    ) -> None:
        if not interfaces:
            raise JiniError("a Jini service must declare at least one interface")
        self.host = host
        self.impl = impl
        self.interfaces = tuple(interfaces)
        self.attributes = dict(attributes or {})
        self.ref = host.runtime.export(impl, interfaces=self.interfaces)
        self.renewals = LeaseRenewalManager(host.sim)
        self.registration_lease: Lease | None = None
        self.service_id = 0
        self._lookup_ref: RemoteRef | None = None

    def publish(
        self,
        lookup_ref: RemoteRef,
        duration: float = DEFAULT_LEASE_DURATION,
        auto_renew: bool = True,
    ) -> SimFuture:
        """Register with the lookup service; resolves to the service id."""
        self._lookup_ref = lookup_ref
        item = ServiceItem(
            interfaces=self.interfaces,
            attributes=self.attributes,
            proxy=self.ref.to_wire(),
            service_id=self.service_id,
        )

        def on_registered(response: dict[str, Any]) -> int:
            self.service_id = int(response["service_id"])
            lease = Lease.from_wire(response["lease"])
            self.registration_lease = lease
            if auto_renew:
                self.renewals.manage(lease, duration, self._renew_remote)
            return self.service_id

        return self.host.runtime.call(
            lookup_ref, "register", [item.to_wire(), duration]
        ).then(on_registered)

    def update_attributes(self, changes: dict[str, Any]) -> SimFuture:
        """Modify the service's lookup attributes (Jini's ``setAttributes``).

        Re-registers under the same service id, so templates matching the
        new attributes see the service and match-transition listeners fire.
        Resolves to the (unchanged) service id.
        """
        if self._lookup_ref is None:
            return SimFuture.failed(JiniError("service was never published"))
        self.attributes.update(changes)
        if self.registration_lease is not None:
            self.renewals.forget(self.registration_lease)
        return self.publish(self._lookup_ref)

    def unpublish(self) -> None:
        """Cancel the registration lease and stop renewing."""
        if self.registration_lease is not None and self._lookup_ref is not None:
            self.renewals.forget(self.registration_lease)
            self.host.runtime.one_way(
                self._lookup_ref, "cancel_lease", [self.registration_lease.lease_id]
            )
            self.registration_lease = None

    def _renew_remote(self, lease_id: int, duration: float) -> SimFuture:
        if self._lookup_ref is None:
            raise JiniError("service was never published")
        return self.host.runtime.call(self._lookup_ref, "renew_lease", [lease_id, duration])


class _ListenerAdapter:
    """Exported remote-event listener wrapping a local callback."""

    def __init__(self, callback: Callable[[RemoteEvent], None]) -> None:
        self._callback = callback

    def notify(self, event_wire: dict[str, Any]) -> None:
        self._callback(RemoteEvent.from_wire(event_wire))


class JiniClient:
    """Discovers lookup services and calls Jini services through proxies."""

    def __init__(self, host: JiniHost) -> None:
        self.host = host
        self.listener = DiscoveryListener(host.stack)
        self._lookup_futures: list[SimFuture] = []
        self.listener.add_callback(self._on_lookup_discovered)

    # -- discovery ------------------------------------------------------------

    def discover_lookup(self, timeout: float = 10.0) -> SimFuture:
        """Resolve to the first discovered lookup-service reference."""
        future: SimFuture = SimFuture()
        if self.listener.discovered:
            ref = next(iter(self.listener.discovered))
            future.set_result(ref)
            return future
        self._lookup_futures.append(future)
        self.listener.request(self.host.segment)
        return future

    def _on_lookup_discovered(self, ref: RemoteRef, group: str) -> None:
        pending, self._lookup_futures = self._lookup_futures, []
        for future in pending:
            if not future.done():
                future.set_result(ref)

    # -- lookup / invocation -----------------------------------------------------

    def lookup(
        self,
        lookup_ref: RemoteRef,
        interface: str | None = None,
        attributes: dict[str, Any] | None = None,
        max_matches: int = 16,
    ) -> SimFuture:
        """Resolve to a list of matching :class:`ServiceItem`."""
        template = ServiceTemplate(interface=interface, attributes=attributes)
        return self.host.runtime.call(
            lookup_ref, "lookup", [template.to_wire(), max_matches]
        ).then(lambda wires: [ServiceItem.from_wire(wire) for wire in wires])

    def lookup_one(
        self,
        lookup_ref: RemoteRef,
        interface: str,
        attributes: dict[str, Any] | None = None,
    ) -> SimFuture:
        """Resolve to a :class:`ServiceProxy` for the first match, or fail
        with :class:`ServiceNotFoundError`."""

        def on_items(items: list[ServiceItem]) -> ServiceProxy:
            if not items:
                raise ServiceNotFoundError(f"no Jini service implements {interface!r}")
            return self.proxy(items[0])

        return self.lookup(lookup_ref, interface, attributes).then(on_items)

    def proxy(self, item: ServiceItem) -> ServiceProxy:
        return ServiceProxy(self.host.runtime, item.proxy_ref())

    # -- events ------------------------------------------------------------

    def register_listener(
        self,
        lookup_ref: RemoteRef,
        callback: Callable[[RemoteEvent], None],
        interface: str | None = None,
        attributes: dict[str, Any] | None = None,
        duration: float = DEFAULT_LEASE_DURATION,
    ) -> SimFuture:
        """Subscribe to lookup match transitions; resolves to the event
        registration wire record."""
        adapter = _ListenerAdapter(callback)
        listener_ref = self.host.runtime.export(adapter)
        template = ServiceTemplate(interface=interface, attributes=attributes)
        return self.host.runtime.call(
            lookup_ref,
            "notify",
            [template.to_wire(), listener_ref.to_wire(), duration],
        )
