"""UPnP device/service description documents.

One XML document per device, served at its SSDP LOCATION: friendly name,
UDN, and a service list whose actions are described inline (a flattened
SCPD — enough for a PCM to generate typed interfaces).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from repro.errors import UpnpError
from repro.soap.xmlutil import (
    XML_DECLARATION,
    escape_attr,
    escape_text,
    local_name,
    parse_document,
)

ARG_TYPES = ("i4", "r8", "string", "boolean", "anyType")

#: UPnP argument type -> neutral XSD name (used by the PCM).
UPNP_TO_XSD = {
    "i4": "int",
    "r8": "double",
    "string": "string",
    "boolean": "boolean",
    "anyType": "anyType",
}
XSD_TO_UPNP = {xsd: upnp for upnp, xsd in UPNP_TO_XSD.items()}


@dataclass(frozen=True)
class ActionArgument:
    """One typed input argument of a UPnP action."""

    name: str
    type: str  # an entry of ARG_TYPES

    def __post_init__(self) -> None:
        if self.type not in ARG_TYPES:
            raise UpnpError(f"unknown UPnP argument type {self.type!r}")


@dataclass(frozen=True)
class Action:
    """One UPnP action (flattened SCPD entry)."""

    name: str
    inputs: tuple[ActionArgument, ...] = ()
    output: str = ""  # '' = no return; else an ARG_TYPES entry

    def __post_init__(self) -> None:
        if self.output and self.output not in ARG_TYPES:
            raise UpnpError(f"unknown UPnP return type {self.output!r}")


@dataclass
class ServiceDescription:
    """One service of a device: ids, endpoint paths, action table."""

    service_id: str  # e.g. 'urn:upnp-org:serviceId:SwitchPower'
    service_type: str  # e.g. 'urn:schemas-upnp-org:service:SwitchPower:1'
    control_path: str
    event_path: str
    actions: tuple[Action, ...] = ()

    def action(self, name: str) -> Action:
        for action in self.actions:
            if action.name == name:
                return action
        raise UpnpError(f"service {self.service_id!r} has no action {name!r}")


@dataclass
class DeviceDescription:
    """A root device's description document."""

    friendly_name: str
    device_type: str
    udn: str  # 'uuid:...'
    services: list[ServiceDescription] = field(default_factory=list)

    def service(self, service_id: str) -> ServiceDescription:
        for service in self.services:
            if service.service_id == service_id:
                return service
        raise UpnpError(f"device {self.udn!r} has no service {service_id!r}")

    # -- XML ------------------------------------------------------------

    def to_xml(self) -> bytes:
        """The description document, rendered from one fixed template with
        every name and text escaped.  Argument and return types are
        :data:`ARG_TYPES` entries (checked on construction) and need no
        escaping."""
        parts = [
            f'{XML_DECLARATION}<root xmlns="urn:schemas-upnp-org:device-1-0"><device>'
            f"<deviceType>{escape_text(self.device_type)}</deviceType>"
            f"<friendlyName>{escape_text(self.friendly_name)}</friendlyName>"
            f"<UDN>{escape_text(self.udn)}</UDN><serviceList>"
        ]
        for service in self.services:
            parts.append(
                f"<service><serviceId>{escape_text(service.service_id)}</serviceId>"
                f"<serviceType>{escape_text(service.service_type)}</serviceType>"
                f"<controlURL>{escape_text(service.control_path)}</controlURL>"
                f"<eventSubURL>{escape_text(service.event_path)}</eventSubURL>"
                "<actionList>"
            )
            for action in service.actions:
                parts.append(
                    f'<action name="{escape_attr(action.name)}" output="{action.output}">'
                )
                parts += [
                    f'<argument name="{escape_attr(argument.name)}" type="{argument.type}"/>'
                    for argument in action.inputs
                ]
                parts.append("</action>")
            parts.append("</actionList></service>")
        parts.append("</serviceList></device></root>")
        return "".join(parts).encode("utf-8")

    @staticmethod
    def from_xml(data: bytes) -> "DeviceDescription":
        root = parse_document(data)
        device_el = _child(root, "device")
        services: list[ServiceDescription] = []
        service_list = _child(device_el, "serviceList", required=False)
        if service_list is not None:
            for service_el in service_list:
                actions = []
                action_list = _child(service_el, "actionList", required=False)
                if action_list is not None:
                    for action_el in action_list:
                        arguments = tuple(
                            ActionArgument(arg.get("name") or "", arg.get("type") or "string")
                            for arg in action_el
                        )
                        actions.append(
                            Action(
                                name=action_el.get("name") or "",
                                inputs=arguments,
                                output=action_el.get("output") or "",
                            )
                        )
                services.append(
                    ServiceDescription(
                        service_id=_text(service_el, "serviceId"),
                        service_type=_text(service_el, "serviceType"),
                        control_path=_text(service_el, "controlURL"),
                        event_path=_text(service_el, "eventSubURL"),
                        actions=tuple(actions),
                    )
                )
        return DeviceDescription(
            friendly_name=_text(device_el, "friendlyName"),
            device_type=_text(device_el, "deviceType"),
            udn=_text(device_el, "UDN"),
            services=services,
        )


def _child(element: ET.Element, name: str, required: bool = True) -> ET.Element | None:
    for child in element:
        if local_name(child) == name:
            return child
    if required:
        raise UpnpError(f"description lacks <{name}>")
    return None


def _text(element: ET.Element, name: str) -> str:
    child = _child(element, name)
    return (child.text or "").strip()
