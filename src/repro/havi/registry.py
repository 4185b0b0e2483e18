"""The HAVi Registry.

One software element (well-known local id ``0x0002``) holding attribute
records for every registered element on the bus.  Queries are attribute
subset matches, like HAVi's ``Registry::GetElement`` with comparators.
A bus reset does not clear the registry (GUIDs are stable here), but
elements of departed nodes are dropped.
"""

from __future__ import annotations

from typing import Any

from repro.errors import HaviError, ServiceNotFoundError
from repro.net.simkernel import SimFuture
from repro.havi.bus1394 import HaviNode
from repro.havi.messaging import REGISTRY_LOCAL_ID, MessagingSystem, Seid


class Registry:
    """Registry software element, hosted on one bus node."""

    def __init__(self, havi_node: HaviNode) -> None:
        self.havi_node = havi_node
        self._entries: dict[Seid, dict[str, Any]] = {}
        self.seid = havi_node.messaging.register_element(
            self._handle, local_id=REGISTRY_LOCAL_ID
        )
        havi_node.bus.on_bus_reset(self._on_bus_reset)

    # -- request dispatch ---------------------------------------------------------

    def _handle(self, src: Seid, operation: str, args: list[Any]) -> Any:
        if operation == "register":
            return self._register(Seid.from_wire(args[0]), dict(args[1]))
        if operation == "unregister":
            return self._unregister(Seid.from_wire(args[0]))
        if operation == "query":
            return self._query(dict(args[0]) if args else {})
        if operation == "get_all":
            return self._query({})
        raise HaviError(f"registry has no operation {operation!r}")

    # -- operations ------------------------------------------------------------

    def _register(self, seid: Seid, attributes: dict[str, Any]) -> bool:
        self._entries[seid] = attributes
        return True

    def _unregister(self, seid: Seid) -> bool:
        return self._entries.pop(seid, None) is not None

    def _query(self, attribute_filter: dict[str, Any]) -> list[dict[str, Any]]:
        matches = []
        for seid, attributes in sorted(self._entries.items()):
            if all(attributes.get(key) == value for key, value in attribute_filter.items()):
                matches.append({"seid": seid.to_wire(), "attributes": attributes})
        return matches

    # -- local inspection ---------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def _on_bus_reset(self) -> None:
        live_guids = {member.guid for member in self.havi_node.bus.members}
        self._entries = {
            seid: attributes
            for seid, attributes in self._entries.items()
            if seid.guid in live_guids
        }


class RegistryClient:
    """Client-side view of the registry, used from any bus node."""

    def __init__(self, messaging: MessagingSystem, registry_seid: Seid) -> None:
        self.messaging = messaging
        self.registry_seid = registry_seid
        # A throwaway element to source requests from.
        self._seid = messaging.register_element(self._ignore)

    @staticmethod
    def for_bus(havi_node: HaviNode, registry_node: HaviNode) -> "RegistryClient":
        """Convenience: client on ``havi_node`` talking to the registry
        hosted by ``registry_node``."""
        return RegistryClient(
            havi_node.messaging, Seid(registry_node.guid, REGISTRY_LOCAL_ID)
        )

    @staticmethod
    def _ignore(src: Seid, operation: str, args: list[Any]) -> Any:
        raise HaviError("registry client element accepts no requests")

    def register(self, seid: Seid, attributes: dict[str, Any]) -> SimFuture:
        return self.messaging.send_request(
            self._seid, self.registry_seid, "register", [seid.to_wire(), attributes]
        )

    def unregister(self, seid: Seid) -> SimFuture:
        return self.messaging.send_request(
            self._seid, self.registry_seid, "unregister", [seid.to_wire()]
        )

    def query(self, attribute_filter: dict[str, Any] | None = None) -> SimFuture:
        """Resolve to a list of (Seid, attributes) tuples."""
        return self.messaging.send_request(
            self._seid, self.registry_seid, "query", [attribute_filter or {}]
        ).then(
            lambda wire: [
                (Seid.from_wire(entry["seid"]), entry["attributes"]) for entry in wire
            ]
        )

    def find_one(self, attribute_filter: dict[str, Any]) -> SimFuture:
        """Resolve to the first matching (Seid, attributes) or fail with
        :class:`ServiceNotFoundError`."""

        def pick(entries: list) -> tuple:
            if not entries:
                raise ServiceNotFoundError(f"no HAVi element matches {attribute_filter!r}")
            return entries[0]

        return self.query(attribute_filter).then(pick)
