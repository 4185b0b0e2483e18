"""The Jini PCM.

Conversion conventions (paper Figure 4 is exactly this PCM talking to the
X10 PCM through the SOAP VSG):

- **Client Proxy (export)** — every item in the island's lookup service
  whose attributes carry an ``ops`` table becomes a neutral service.  The
  ``ops`` table uses ``simple_interface`` specs, e.g.
  ``{"play": ["->boolean"], "goto_chapter": ["int", "->int"]}``.
  The handler invokes the Jini proxy over RMI.
- **Server Proxy (import)** — a remote service's WSDL is turned into a
  *generated* adapter object exported over the gateway's RMI runtime and
  registered with the lookup service under the interface
  ``vsg.<ServiceName>`` with attribute ``bridged: True``.  Unmodified Jini
  clients discover and call it like any native service; the adapter routes
  through the VSG.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConversionError
from repro.net.simkernel import SimFuture
from repro.soap.wsdl import WsdlDocument
from repro.soap.xmlutil import is_xml_name
from repro.core.interface import ServiceInterface, simple_interface
from repro.core.pcm import ProtocolConversionManager
from repro.core.vsg import VirtualServiceGateway
from repro.jini.events import (
    TRANSITION_MATCH_NOMATCH,
    TRANSITION_NOMATCH_MATCH,
    RemoteEvent,
)
from repro.jini.lease import Lease, LeaseRenewalManager
from repro.jini.lookup import ServiceItem, ServiceTemplate
from repro.jini.rmi import RemoteRef
from repro.jini.service import JiniHost, JiniService, ServiceProxy


class _TransitionListener:
    """Exported remote-event listener feeding lookup transitions to the PCM."""

    def __init__(self, pcm: "JiniPcm") -> None:
        self._pcm = pcm

    def notify(self, event_wire: dict) -> None:
        event = RemoteEvent.from_wire(event_wire)
        payload = event.payload or {}
        item_wire = payload.get("item")
        if not isinstance(item_wire, dict):
            return
        self._pcm._on_transition(
            int(payload.get("transition", 0)), ServiceItem.from_wire(item_wire)
        )

#: How long the SP adapters' lookup registrations are leased for.
BRIDGE_LEASE = 120.0


def interface_from_ops(name: str, ops: dict[str, list[str]]) -> ServiceInterface:
    """Build a neutral interface from a Jini ``ops`` attribute table."""
    return simple_interface(name, {op: tuple(spec) for op, spec in ops.items()})


def ops_from_interface(interface: ServiceInterface) -> dict[str, list[str]]:
    """Inverse: render an interface as an ``ops`` attribute table."""
    table: dict[str, list[str]] = {}
    for operation in interface.operations:
        spec = [param.type.xsd_name for param in operation.params]
        spec.append("->" + operation.returns.xsd_name)
        table[operation.name] = spec
    return table


class JiniPcm(ProtocolConversionManager):
    """PCM bridging one Jini island."""

    middleware_name = "jini"

    def __init__(
        self,
        vsg: VirtualServiceGateway,
        host: JiniHost,
        lookup_ref: RemoteRef,
    ) -> None:
        super().__init__(vsg)
        self.host = host
        self.lookup_ref = lookup_ref
        self._bridges: dict[str, JiniService] = {}
        self._liveness_renewals = LeaseRenewalManager(self.sim)
        self.hotplug_exports = 0
        self.withdrawals = 0
        #: Services skipped because their description cannot be exported.
        self.rejected_exports = 0

    # -- liveness: track lookup-service transitions --------------------------------

    def enable_liveness(self, duration: float = 120.0) -> SimFuture:
        """Watch the lookup service: newly registered Jini services are
        exported framework-wide at runtime (hot plug), and services whose
        leases lapse are withdrawn from the VSR (liveness propagation).

        Resolves to True once the event registration is in place; the
        registration's own lease is auto-renewed.
        """
        adapter = _TransitionListener(self)
        listener_ref = self.host.runtime.export(adapter)

        def on_registered(registration: dict[str, Any]) -> bool:
            lease = Lease.from_wire(registration["lease"])
            self._liveness_renewals.manage(
                lease,
                duration,
                lambda lease_id, renew_duration: self.host.runtime.call(
                    self.lookup_ref, "renew_lease", [lease_id, renew_duration]
                ),
            )
            return True

        return self.host.runtime.call(
            self.lookup_ref,
            "notify",
            [ServiceTemplate().to_wire(), listener_ref.to_wire(), duration],
        ).then(on_registered)

    def _on_transition(self, transition: int, item: ServiceItem) -> None:
        if item.attributes.get("bridged"):
            return  # our own Server Proxies: not subject to re-export
        if transition == TRANSITION_NOMATCH_MATCH:
            entry = self._exportable(item)
            if entry is None or entry[0] in self.exported:
                return
            name, interface, handler, context = entry
            self.exported[name] = interface
            full_context = {"middleware": self.middleware_name}
            full_context.update(context)
            self.hotplug_exports += 1
            self.vsg.export_service(
                name, interface, handler, full_context
            ).add_done_callback(lambda f: f.exception())
        elif transition == TRANSITION_MATCH_NOMATCH:
            name = str(
                item.attributes.get("name") or item.interfaces[0].rpartition(".")[2]
            )
            if name in self.exported:
                self.withdrawals += 1
                self.exported.pop(name, None)
                self.vsg.withdraw_service(name).add_done_callback(
                    lambda f: f.exception()
                )

    # -- Client Proxy: Jini -> neutral ----------------------------------------------

    def _discover_local_services(self) -> SimFuture:
        def on_items(wires: list[dict[str, Any]]) -> list:
            discovered = []
            for wire in wires:
                entry = self._exportable(ServiceItem.from_wire(wire))
                if entry is not None:
                    discovered.append(entry)
            return discovered

        return self.host.runtime.call(
            self.lookup_ref, "lookup", [ServiceTemplate().to_wire(), 256]
        ).then(on_items)

    def _exportable(self, item: ServiceItem):
        """:meth:`_describe_item`, except that one service whose
        description cannot be converted is skipped and counted, so the
        island's other services still export."""
        try:
            return self._describe_item(item)
        except ConversionError:
            self.rejected_exports += 1
            return None

    def _describe_item(self, item: ServiceItem):
        if item.attributes.get("bridged"):
            return None  # a Server Proxy we created: never re-export
        ops = item.attributes.get("ops")
        if not isinstance(ops, dict) or not ops:
            return None  # service carries no convertible description
        name = str(item.attributes.get("name") or item.interfaces[0].rpartition(".")[2])
        if not is_xml_name(name):
            raise ConversionError(f"Jini service name {name!r} is not exportable")
        try:
            interface = interface_from_ops(name, ops)
        except Exception as exc:
            raise ConversionError(f"bad ops table on Jini service {name!r}: {exc}") from exc
        proxy = ServiceProxy(self.host.runtime, item.proxy_ref())

        def handler(operation: str, args: list[Any]) -> SimFuture:
            return self.host.runtime.call(proxy.remote_ref, operation, args)

        context = {
            "jini_interface": item.interfaces[0],
            "jini_service_id": str(item.service_id),
        }
        room = item.attributes.get("room")
        if isinstance(room, str) and room:
            context["room"] = room
        return (name, interface, handler, context)

    # -- Server Proxy: neutral -> Jini ----------------------------------------------

    def _materialise(self, document: WsdlDocument, interface: ServiceInterface) -> SimFuture:
        adapter = self.proxies.create(interface, self.remote_invoker(document.service))
        bridge = JiniService(
            self.host,
            adapter,
            interfaces=(f"vsg.{document.service}",),
            attributes={
                "name": document.service,
                "bridged": True,
                "origin_island": document.context.get("island", ""),
                "origin_middleware": document.context.get("middleware", ""),
                "ops": ops_from_interface(interface),
            },
        )
        self._bridges[document.service] = bridge
        return bridge.publish(self.lookup_ref, duration=BRIDGE_LEASE).then(lambda _: True)

    def shutdown(self) -> None:
        for bridge in self._bridges.values():
            bridge.unpublish()
        self._bridges.clear()
