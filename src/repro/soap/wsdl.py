"""WSDL-like service description documents.

The prototype's Virtual Service Repository "has been implemented by WSDL
... and UDDI" (paper Section 4.1).  A :class:`WsdlDocument` is the unit the
repository stores: the service name, its gateway location, its typed
operations, and free-form context attributes (island, device class, room,
...) used for context-aware queries.

Types use XSD names: ``int``, ``double``, ``string``, ``boolean``,
``base64``, ``anyType`` (lists/structs/any) and ``void`` for no return.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import SoapError
from repro.net.addressing import NodeAddress
from repro.soap import xmlutil
from repro.soap.xmlutil import (
    ATTR_VALUE,
    WSDL_NS,
    XML_DECLARATION,
    escape_attr,
    local_name,
    unescape_attr,
)

XSD_TYPES = frozenset(
    {"int", "double", "string", "boolean", "base64", "anyType", "void"}
)


def make_location(address: NodeAddress, port: int, service: str) -> str:
    """Render a gateway endpoint locator, e.g. ``soap://backbone/2:8080/soap/TV``."""
    return f"soap://{address}:{port}/soap/{service}"


def parse_location(location: str) -> tuple[NodeAddress, int, str]:
    """Inverse of :func:`make_location` → (address, port, service name)."""
    scheme, sep, rest = location.partition("://")
    if not sep or scheme != "soap":
        raise SoapError(f"unsupported location {location!r}")
    hostpart, sep, path = rest.partition("/soap/")
    if not sep:
        raise SoapError(f"location {location!r} has no /soap/ path")
    addr_text, sep, port_text = hostpart.rpartition(":")
    if not sep or not (port_text.isascii() and port_text.isdigit()):
        raise SoapError(f"location {location!r} has no port")
    try:
        address = NodeAddress.parse(addr_text)
    except ValueError as exc:
        raise SoapError(str(exc)) from exc
    return address, int(port_text), path


@dataclass(frozen=True)
class WsdlPart:
    """One message part: a named, typed parameter."""

    name: str
    type: str  # an XSD type name from :data:`XSD_TYPES`

    def __post_init__(self) -> None:
        if self.type not in XSD_TYPES:
            raise SoapError(f"unknown XSD type {self.type!r} for part {self.name!r}")


@dataclass(frozen=True)
class WsdlOperation:
    """One operation of a port type."""

    name: str
    inputs: tuple[WsdlPart, ...] = ()
    output: str = "void"
    oneway: bool = False

    def __post_init__(self) -> None:
        if self.output not in XSD_TYPES:
            raise SoapError(f"unknown return type {self.output!r} on {self.name!r}")


@dataclass
class WsdlDocument:
    """A complete service description."""

    service: str
    location: str
    operations: tuple[WsdlOperation, ...] = ()
    context: dict[str, str] = field(default_factory=dict)

    def operation(self, name: str) -> WsdlOperation:
        for op in self.operations:
            if op.name == name:
                return op
        raise SoapError(f"service {self.service!r} has no operation {name!r}")

    def has_operation(self, name: str) -> bool:
        return any(op.name == name for op in self.operations)

    # -- serialisation ----------------------------------------------------------

    def to_xml(self) -> bytes:
        """The canonical document, rendered from one fixed template with
        every name and value attribute-escaped.  XSD type names come from
        :data:`XSD_TYPES` and need no escaping."""
        service = escape_attr(self.service)
        parts = [
            f'{XML_DECLARATION}<wsdl:definitions xmlns:wsdl="{WSDL_NS}" name="{service}">'
            f'<wsdl:service name="{service}">'
            f'<wsdl:port location="{escape_attr(self.location)}"/></wsdl:service>'
            f'<wsdl:portType name="{service}PortType">'
        ]
        for op in self.operations:
            oneway = ' oneway="true"' if op.oneway else ""
            parts.append(
                f'<wsdl:operation name="{escape_attr(op.name)}" output="{op.output}"{oneway}>'
            )
            parts += [
                f'<wsdl:part name="{escape_attr(part.name)}" type="{part.type}"/>'
                for part in op.inputs
            ]
            parts.append("</wsdl:operation>")
        parts.append("</wsdl:portType>")
        if self.context:
            parts.append("<wsdl:context>")
            parts += [
                f'<wsdl:attribute name="{escape_attr(key)}"'
                f' value="{escape_attr(self.context[key])}"/>'
                for key in sorted(self.context)
            ]
            parts.append("</wsdl:context>")
        parts.append("</wsdl:definitions>")
        return "".join(parts).encode("utf-8")

    @staticmethod
    def from_xml(data: bytes | str) -> "WsdlDocument":
        """Read a document.  The shape :meth:`to_xml` renders is read by
        one template match; anything else (whitespace between elements,
        other entities, another attribute order, bytes that are not
        UTF-8, ...) is parsed by ElementTree, so both give the same
        document or raise the same exception type."""
        if isinstance(data, (bytes, bytearray)):
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                return _parse_tree(data)
        else:
            text = data
        document = _read_template(text)
        if document is not None:
            return document
        return _parse_tree(data.encode("utf-8") if isinstance(data, str) else data)


# The :meth:`WsdlDocument.to_xml` template as patterns.  ``ATTR_VALUE``
# admits exactly the characters and entities ``escape_attr`` leaves in an
# attribute value (no character ElementTree would normalise or reject), so
# a value it matches reads the same through :func:`unescape_attr` as
# through the parser.  ``{g}`` opens a group: capturing in the patterns
# that ``findall`` reads, non-capturing inside the whole-document match.
_PART = '<wsdl:part name="{g}%s)" type="{g}[A-Za-z0-9]*)"/>' % ATTR_VALUE
_OPERATION = (
    '<wsdl:operation name="{g}%s)" output="{g}[A-Za-z0-9]*)"{g} oneway="true")?>'
    "{g}(?:%s)*)</wsdl:operation>" % (ATTR_VALUE, _PART.format(g="(?:"))
)
_ATTRIBUTE = '<wsdl:attribute name="{g}%s)" value="{g}%s)"/>' % (ATTR_VALUE, ATTR_VALUE)
_DOCUMENT_RE = re.compile(
    re.escape(f'{XML_DECLARATION}<wsdl:definitions xmlns:wsdl="{WSDL_NS}" name="')
    + f'{ATTR_VALUE}"><wsdl:service name="({ATTR_VALUE})">'
    + f'<wsdl:port location="({ATTR_VALUE})"/></wsdl:service>'
    + f'<wsdl:portType name="{ATTR_VALUE}">'
    + "((?:%s)*)</wsdl:portType>" % _OPERATION.format(g="(?:")
    + "(?:<wsdl:context>((?:%s)*)</wsdl:context>)?</wsdl:definitions>"
    % _ATTRIBUTE.format(g="(?:")
)
_OPERATION_RE = re.compile(_OPERATION.format(g="("))
_PART_RE = re.compile(_PART.format(g="("))
_ATTRIBUTE_RE = re.compile(_ATTRIBUTE.format(g="("))


def _read_template(text: str) -> WsdlDocument | None:
    """The document when ``text`` is exactly the :meth:`WsdlDocument.to_xml`
    shape, else None."""
    match = _DOCUMENT_RE.fullmatch(text)
    if match is None:
        return None
    name, location, port_type, context_body = match.groups()
    name = unescape_attr(name)
    location = unescape_attr(location)
    if not name or not location:
        raise SoapError("WSDL service/port missing name or location")
    operations = []
    for op_name, output, oneway, parts in _OPERATION_RE.findall(port_type):
        inputs = []
        for part_name, part_type in _PART_RE.findall(parts):
            inputs.append(WsdlPart(unescape_attr(part_name), part_type or "anyType"))
        operations.append(
            WsdlOperation(
                unescape_attr(op_name), tuple(inputs), output or "void", bool(oneway)
            )
        )
    context = {}
    if context_body:
        for key, value in _ATTRIBUTE_RE.findall(context_body):
            context[unescape_attr(key)] = unescape_attr(value)
    return WsdlDocument(name, location, tuple(operations), context)


def _parse_tree(data: bytes) -> WsdlDocument:
    """Any well-formed document, through ElementTree."""
    root = xmlutil.parse_document(data)
    if local_name(root) != "definitions":
        raise SoapError(f"not a WSDL document (root {local_name(root)!r})")
    service_el = xmlutil.require_child(root, WSDL_NS, "service")
    name = service_el.get("name") or ""
    port_el = xmlutil.require_child(service_el, WSDL_NS, "port")
    location = port_el.get("location") or ""
    if not name or not location:
        raise SoapError("WSDL service/port missing name or location")

    operations: list[WsdlOperation] = []
    port_type = xmlutil.find_child(root, WSDL_NS, "portType")
    if port_type is not None:
        for op_el in port_type:
            parts = tuple(
                WsdlPart(part.get("name") or "", part.get("type") or "anyType")
                for part in op_el
            )
            operations.append(
                WsdlOperation(
                    name=op_el.get("name") or "",
                    inputs=parts,
                    output=op_el.get("output") or "void",
                    oneway=op_el.get("oneway") == "true",
                )
            )

    context: dict[str, str] = {}
    context_el = xmlutil.find_child(root, WSDL_NS, "context")
    if context_el is not None:
        for attr_el in context_el:
            context[attr_el.get("name") or ""] = attr_el.get("value") or ""

    return WsdlDocument(
        service=name,
        location=location,
        operations=tuple(operations),
        context=context,
    )
