"""The Jini lookup service (the reggie of this simulation).

The lookup service is itself a remote object: clients reach it through the
RMI reference carried in discovery announcements and call ``register`` /
``lookup`` / ``notify`` / lease verbs on it.  Registrations are leased;
expiry withdraws the service and fires match-transition events to
interested listeners.
"""

from __future__ import annotations

from typing import Any

from repro.errors import JiniError
from repro.net.segment import Segment
from repro.jini.discovery import DEFAULT_GROUP, DiscoveryAnnouncer
from repro.jini.events import (
    TRANSITION_MATCH_NOMATCH,
    TRANSITION_NOMATCH_MATCH,
    EventListenerEntry,
    RemoteEvent,
)
from repro.jini.lease import DEFAULT_LEASE_DURATION, LeaseTable
from repro.jini.rmi import RemoteRef, RmiRuntime


class ServiceItem:
    """One registered service: identity, interfaces, attributes, proxy."""

    __slots__ = ("service_id", "interfaces", "attributes", "proxy")

    def __init__(
        self,
        interfaces: tuple[str, ...],
        attributes: dict[str, Any] | None = None,
        proxy: dict[str, Any] | None = None,
        service_id: int = 0,
    ) -> None:
        self.service_id = service_id
        self.interfaces = tuple(interfaces)
        self.attributes = dict(attributes or {})
        #: Marshallable proxy descriptor — normally a RemoteRef wire dict.
        self.proxy = proxy or {}

    def to_wire(self) -> dict[str, Any]:
        return {
            "service_id": self.service_id,
            "interfaces": list(self.interfaces),
            "attributes": self.attributes,
            "proxy": self.proxy,
        }

    @staticmethod
    def from_wire(data: dict[str, Any]) -> "ServiceItem":
        return ServiceItem(
            interfaces=tuple(data.get("interfaces", ())),
            attributes=data.get("attributes", {}),
            proxy=data.get("proxy", {}),
            service_id=int(data.get("service_id", 0)),
        )

    def proxy_ref(self) -> RemoteRef:
        return RemoteRef.from_wire(self.proxy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServiceItem #{self.service_id} {','.join(self.interfaces)}>"


class ServiceTemplate:
    """Matching template: any combination of id / interface / attributes."""

    __slots__ = ("service_id", "interface", "attributes")

    def __init__(
        self,
        interface: str | None = None,
        attributes: dict[str, Any] | None = None,
        service_id: int | None = None,
    ) -> None:
        self.interface = interface
        self.attributes = dict(attributes or {})
        self.service_id = service_id

    def matches(self, item: ServiceItem) -> bool:
        if self.service_id is not None and item.service_id != self.service_id:
            return False
        if self.interface is not None and self.interface not in item.interfaces:
            return False
        for key, value in self.attributes.items():
            if item.attributes.get(key) != value:
                return False
        return True

    def to_wire(self) -> dict[str, Any]:
        return {
            "service_id": self.service_id,
            "interface": self.interface,
            "attributes": self.attributes,
        }

    @staticmethod
    def from_wire(data: dict[str, Any]) -> "ServiceTemplate":
        service_id = data.get("service_id")
        return ServiceTemplate(
            interface=data.get("interface"),
            attributes=data.get("attributes", {}),
            service_id=None if service_id is None else int(service_id),
        )


class ServiceRegistration:
    """Returned to a registrant: the assigned id plus the guarding lease."""

    __slots__ = ("service_id", "lease")

    def __init__(self, service_id: int, lease) -> None:
        self.service_id = service_id
        self.lease = lease


class LookupService:
    """The lookup service proper.

    Construction exports the service over the node's RMI runtime and starts
    discovery announcements on the island segment.
    """

    def __init__(
        self,
        runtime: RmiRuntime,
        segment: Segment | str,
        group: str = DEFAULT_GROUP,
        announce_interval: float = 20.0,
    ) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self._items: dict[int, ServiceItem] = {}
        self._item_leases: dict[int, int] = {}  # service_id -> lease_id
        self.leases = LeaseTable(self.sim)
        self._listeners: dict[int, tuple[ServiceTemplate, EventListenerEntry]] = {}
        self._next_service_id = 1
        self._next_event_id = 1
        self.ref = runtime.export(self, interfaces=("net.jini.core.lookup.ServiceRegistrar",))
        self.announcer = DiscoveryAnnouncer(
            runtime.stack, segment, self.ref, group=group, interval=announce_interval
        )
        self.announcer.start()

    # -- remote verbs (called via RMI; all args/results marshallable) ----------

    def register(self, item_wire: dict[str, Any], duration: float) -> dict[str, Any]:
        item = ServiceItem.from_wire(item_wire)
        if not item.interfaces:
            raise JiniError("service item declares no interfaces")
        if item.service_id and item.service_id in self._items:
            # Re-registration: refresh proxy/attributes, keep identity.
            service_id = item.service_id
            old_lease_id = self._item_leases.pop(service_id, None)
            if old_lease_id is not None:
                self.leases.cancel(old_lease_id)
        else:
            service_id = self._next_service_id
            self._next_service_id += 1
        item.service_id = service_id
        lease = self.leases.grant(
            duration or DEFAULT_LEASE_DURATION,
            cookie=("registration", service_id),
            on_expire=lambda _lease: self._withdraw(service_id),
        )
        self._items[service_id] = item
        self._item_leases[service_id] = lease.lease_id
        self._fire_transition(item, TRANSITION_NOMATCH_MATCH)
        return {"service_id": service_id, "lease": lease.to_wire()}

    def renew_lease(self, lease_id: int, duration: float) -> float:
        return self.leases.renew(int(lease_id), float(duration)).expiration

    def cancel_lease(self, lease_id: int) -> None:
        self.leases.cancel(int(lease_id))

    def lookup(self, template_wire: dict[str, Any], max_matches: int = 16) -> list[dict[str, Any]]:
        template = ServiceTemplate.from_wire(template_wire)
        matches = [
            item.to_wire()
            for item in self._items.values()
            if template.matches(item)
        ]
        matches.sort(key=lambda wire: wire["service_id"])
        return matches[: int(max_matches)]

    def notify(
        self,
        template_wire: dict[str, Any],
        listener_wire: dict[str, Any],
        duration: float,
    ) -> dict[str, Any]:
        template = ServiceTemplate.from_wire(template_wire)
        listener = RemoteRef.from_wire(listener_wire)
        event_id = self._next_event_id
        self._next_event_id += 1
        lease = self.leases.grant(
            duration or DEFAULT_LEASE_DURATION,
            cookie=("listener", event_id),
            on_expire=lambda _lease: self._listeners.pop(event_id, None),
        )
        entry = EventListenerEntry(event_id, listener, lease)
        self._listeners[event_id] = (template, entry)
        return {"event_id": event_id, "lease": lease.to_wire()}

    # -- local inspection --------------------------------------------------------

    @property
    def registered_count(self) -> int:
        return len(self._items)

    def items(self) -> list[ServiceItem]:
        return sorted(self._items.values(), key=lambda item: item.service_id)

    def close(self) -> None:
        self.announcer.close()
        self.runtime.unexport(self.ref)

    # -- internals ------------------------------------------------------------

    def _withdraw(self, service_id: int) -> None:
        item = self._items.pop(service_id, None)
        self._item_leases.pop(service_id, None)
        if item is not None:
            self._fire_transition(item, TRANSITION_MATCH_NOMATCH)

    def _fire_transition(self, item: ServiceItem, transition: int) -> None:
        for template, entry in list(self._listeners.values()):
            if not template.matches(item):
                continue
            event = RemoteEvent(
                source="lookup",
                event_id=entry.event_id,
                sequence=entry.next_sequence(),
                payload={"transition": transition, "item": item.to_wire()},
            )
            self.runtime.one_way(entry.listener, "notify", [event.to_wire()])
