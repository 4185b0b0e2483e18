"""The UPnP PCM — the paper's "new middleware joins effortlessly" claim.

Section 5: "We can connect the UPnP service to other middleware by
developing a PCM for UPnP."  This module *is* that PCM; experiment C5
measures that adding the UPnP island required exactly this one module and
zero changes to the framework or the other four PCMs.

- **Client Proxy (export)** — SSDP-discovered devices' actions become
  neutral services named ``<FriendlyName>_<ServiceShortId>``; GENA events
  are republished on the framework bus as ``upnp.<variable>``.
- **Server Proxy (import)** — remote services materialise as actions of a
  virtual UPnP device (``BridgeDevice``) hosted by the gateway, so native
  control points drive them with plain UPnP control.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConversionError
from repro.net.segment import Segment
from repro.net.simkernel import SimFuture
from repro.soap.wsdl import WsdlDocument
from repro.soap.xmlutil import is_xml_name
from repro.core.interface import (
    Operation,
    Parameter,
    ServiceInterface,
    ValueType,
)
from repro.core.pcm import ProtocolConversionManager
from repro.core.vsg import VirtualServiceGateway
from repro.upnp.control import UpnpControlPoint
from repro.upnp.description import (
    UPNP_TO_XSD,
    XSD_TO_UPNP,
    DeviceDescription,
    ServiceDescription,
)
from repro.upnp.device import UpnpDevice

#: Virtual seconds discovery waits for unicast M-SEARCH responses before
#: walking the discovered root devices' descriptions.
DISCOVERY_SETTLE = 1.0


def short_id_of(service: ServiceDescription) -> str:
    """The trailing token of a UPnP serviceId (e.g. ``SwitchPower``)."""
    return service.service_id.rpartition(":")[2]


def neutral_name(description: DeviceDescription, service: ServiceDescription) -> str:
    """Framework-wide service name: ``<FriendlyName>_<ServiceShortId>``."""
    name = f"{description.friendly_name}_{short_id_of(service)}".replace(" ", "_")
    if not is_xml_name(name):
        raise ConversionError(f"cannot derive a service name for {service.service_id!r}")
    return name


def interface_from_service(name: str, service: ServiceDescription) -> ServiceInterface:
    """Neutral interface from a UPnP service's action table."""
    operations = []
    for action in service.actions:
        params = tuple(
            Parameter(argument.name, ValueType.from_xsd(UPNP_TO_XSD[argument.type]))
            for argument in action.inputs
        )
        returns = (
            ValueType.from_xsd(UPNP_TO_XSD[action.output])
            if action.output
            else ValueType.VOID
        )
        operations.append(Operation(action.name, params, returns))
    return ServiceInterface(name, tuple(operations))


class UpnpPcm(ProtocolConversionManager):
    """PCM bridging one UPnP/IP island."""

    middleware_name = "upnp"
    BRIDGE_DEVICE_NAME = "VSG_Bridge"

    def __init__(
        self,
        vsg: VirtualServiceGateway,
        segment: Segment,
        control_point: UpnpControlPoint | None = None,
    ) -> None:
        super().__init__(vsg)
        self.segment = segment
        self.control = control_point or UpnpControlPoint(vsg.stack)
        self._bridge_device: UpnpDevice | None = None
        self._exports_by_udn: dict[str, list[str]] = {}
        self.events_bridged = 0
        self.withdrawals = 0
        self.control.on_device_byebye(self._on_byebye)

    def _on_byebye(self, usn: str) -> None:
        """Liveness propagation: a departed device's services leave the
        VSR, so other islands stop seeing them."""
        for name in self._exports_by_udn.pop(usn, []):
            self.withdrawals += 1
            self.exported.pop(name, None)
            self.vsg.withdraw_service(name).add_done_callback(lambda f: f.exception())

    # -- Client Proxy: UPnP -> neutral ----------------------------------------------

    def _discover_local_services(self) -> SimFuture:
        result: SimFuture = SimFuture()
        self.control.search(self.segment)
        self.sim.schedule(DISCOVERY_SETTLE, self._collect_descriptions, result)
        return result

    def _collect_descriptions(self, result: SimFuture) -> None:
        locations = [
            location
            for usn, location in sorted(self.control.discovered.items())
            if not usn.startswith(f"uuid:{self.BRIDGE_DEVICE_NAME}")
        ]
        if not locations:
            result.set_result([])
            return
        discovered: list[Any] = []
        pending = {"count": len(locations)}

        def one_fetched(future: SimFuture) -> None:
            if future.exception() is None:
                description, base = future.result()
                discovered.extend(self._exports_for(description, base))
            pending["count"] -= 1
            if pending["count"] == 0 and not result.done():
                discovered.sort(key=lambda entry: entry[0])
                result.set_result(discovered)

        for location in locations:
            self.control.fetch_description(location).add_done_callback(one_fetched)

    def _exports_for(self, description: DeviceDescription, base: tuple):
        exports = []
        names = self._exports_by_udn.setdefault(description.udn, [])
        for service in description.services:
            name = neutral_name(description, service)
            if name not in names:
                names.append(name)
            interface = interface_from_service(name, service)

            def handler(operation, args, _service=service, _base=base):
                return self.control.invoke(_base, _service, operation, args)

            context = {
                "upnp_udn": description.udn,
                "upnp_service_type": service.service_type,
                "device_name": description.friendly_name,
            }
            exports.append((name, interface, handler, context))
            # Bridge GENA events onto the framework bus.
            self.control.subscribe(base, service, description.udn, self._on_gena_event)
        return exports

    def _on_gena_event(self, udn: str, variable: str, value: Any) -> None:
        self.events_bridged += 1
        self.vsg.publish_event(f"upnp.{variable}", {"udn": udn, "value": value})

    # -- Server Proxy: neutral -> UPnP ----------------------------------------------

    def _materialise(self, document: WsdlDocument, interface: ServiceInterface) -> SimFuture:
        device = self._ensure_bridge_device()
        actions = {}
        for operation in interface.operations:
            arg_spec = tuple(
                (param.name, XSD_TO_UPNP[param.type.xsd_name]) for param in operation.params
            )
            output = (
                "" if operation.returns == ValueType.VOID
                else XSD_TO_UPNP[operation.returns.xsd_name]
            )
            actions[operation.name] = (
                self._forwarder(document.service, operation.name),
                arg_spec,
                output,
            )
        device.add_service(document.service, actions)
        return SimFuture.completed(True)

    def _forwarder(self, service: str, operation: str):
        def forward(*args: Any) -> SimFuture:
            return self.vsg.invoke(service, operation, list(args))

        return forward

    def _ensure_bridge_device(self) -> UpnpDevice:
        if self._bridge_device is None:
            self._bridge_device = UpnpDevice(
                self.vsg.stack.network,
                self.BRIDGE_DEVICE_NAME,
                self.segment,
                friendly_name="VSG Bridge",
                device_type="urn:schemas-repro:device:Bridge:1",
                port=8090,
            )
        return self._bridge_device

    def shutdown(self) -> None:
        if self._bridge_device is not None:
            self._bridge_device.close()
            self._bridge_device = None
        self.control.close()
