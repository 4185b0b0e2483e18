"""SOAP 1.1-style envelopes with Section-5 typed encoding.

Supported value types (the neutral value model of the framework maps onto
exactly these): ``int``, ``float``, ``str``, ``bool``, ``bytes`` (base64),
``None`` (``xsi:nil``), ``list`` (SOAP-ENC Array) and ``dict`` with
identifier-like string keys (struct).  Everything round-trips:
``decode(encode(v)) == v``, which the hypothesis tests verify.

Two wire encodings produce the same :class:`SoapMessage` model:

- **verbose** — the faithful 2002 format above (namespaces, ``xsi:type``
  attributes, XML declaration).  Always the default; the F2/C-series
  baselines measure it.
- **terse** — a negotiated compact XML dialect for the modern
  interchange wire: root ``<E>``, request ``<Q n="op">``, response ``<R n="op">``,
  fault ``<F c=... s=... d=...>``, and single-letter typed values
  ``<v t="i|d|s|b|x|z|a|r">`` (struct members carry ``n="key"``).  Same
  value model, same round-trip guarantee, a fraction of the bytes.

:func:`parse_envelope` accepts either and records which arrived in
``SoapMessage.wire_format`` so servers can answer in kind.
"""

from __future__ import annotations

import base64
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any

from repro.errors import MarshallingError, SoapError
from repro.soap import xmlutil
from repro.soap.xmlutil import (
    SOAP_ENC_NS,
    SOAP_ENV_NS,
    XSD_NS,
    XSI_NS,
    XmlWriter,
    is_xml_name,
    local_name,
)

#: Default namespace for application payload elements.
DEFAULT_SERVICE_NS = "urn:repro-vsg"

_ENVELOPE_ATTRS = {
    "xmlns:SOAP-ENV": SOAP_ENV_NS,
    "xmlns:SOAP-ENC": SOAP_ENC_NS,
    "xmlns:xsi": XSI_NS,
    "xmlns:xsd": XSD_NS,
    "SOAP-ENV:encodingStyle": SOAP_ENC_NS,
}

# Envelope building runs once per bridged call and once per event frame —
# the encode hot path — so builders borrow a pooled writer (reusing its
# allocated part lists) instead of constructing one per envelope.  A
# writer released after a failed build may hold partial markup; reset()
# at borrow time clears it.  Output bytes are identical either way.
_WRITER_POOL: list[XmlWriter] = []
_WRITER_POOL_MAX = 8


def _borrow_writer(declaration: bool = True) -> XmlWriter:
    if _WRITER_POOL:
        writer = _WRITER_POOL.pop()
        writer.reset(declaration)
        return writer
    return XmlWriter(declaration=declaration)


def _release_writer(writer: XmlWriter) -> None:
    if len(_WRITER_POOL) < _WRITER_POOL_MAX:
        _WRITER_POOL.append(writer)


@dataclass
class SoapMessage:
    """Parsed envelope content.

    ``kind`` is ``"request"``, ``"response"`` or ``"fault"``.  Requests carry
    ``operation`` and positional ``args``; responses carry ``value``; faults
    carry ``faultcode`` / ``faultstring`` / ``detail``.
    """

    kind: str
    operation: str = ""
    args: list[Any] = field(default_factory=list)
    value: Any = None
    faultcode: str = ""
    faultstring: str = ""
    detail: str = ""
    #: Which encoding the message arrived in: ``"verbose"`` or ``"terse"``.
    wire_format: str = "verbose"

    def raise_if_fault(self) -> "SoapMessage":
        if self.kind == "fault":
            from repro.errors import SoapFault

            raise SoapFault(self.faultcode, self.faultstring, self.detail)
        return self


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------


def encode_value(writer: XmlWriter, tag: str, value: Any) -> None:
    """Append ``<tag xsi:type=...>`` markup for one value."""
    if value is None:
        writer.leaf(tag, {"xsi:nil": "true"})
    elif isinstance(value, bool):  # before int: bool is an int subclass
        writer.leaf(tag, {"xsi:type": "xsd:boolean"}, "true" if value else "false")
    elif isinstance(value, int):
        writer.leaf(tag, {"xsi:type": "xsd:int"}, str(value))
    elif isinstance(value, float):
        writer.leaf(tag, {"xsi:type": "xsd:double"}, repr(value))
    elif isinstance(value, str):
        writer.leaf(tag, {"xsi:type": "xsd:string"}, value)
    elif isinstance(value, (bytes, bytearray)):
        writer.leaf(
            tag,
            {"xsi:type": "SOAP-ENC:base64"},
            base64.b64encode(bytes(value)).decode("ascii"),
        )
    elif isinstance(value, (list, tuple)):
        writer.open(
            tag,
            {
                "xsi:type": "SOAP-ENC:Array",
                "SOAP-ENC:arrayType": f"xsd:anyType[{len(value)}]",
            },
        )
        for item in value:
            encode_value(writer, "item", item)
        writer.close()
    elif isinstance(value, dict):
        writer.open(tag, {"xsi:type": "SOAP-ENC:Struct"})
        for key, member in value.items():
            if not isinstance(key, str) or not is_xml_name(key):
                raise MarshallingError(
                    f"struct keys must be XML-name-like strings, got {key!r}"
                )
            encode_value(writer, key, member)
        writer.close()
    else:
        raise MarshallingError(f"cannot SOAP-encode value of type {type(value).__name__}")


def decode_value(element: ET.Element) -> Any:
    """Inverse of :func:`encode_value`."""
    if xmlutil.attr(element, XSI_NS, "nil") == "true":
        return None
    type_attr = xmlutil.attr(element, XSI_NS, "type") or ""
    local_type = type_attr.rpartition(":")[2]
    text = element.text or ""
    if local_type == "boolean":
        return text.strip() in ("true", "1")
    if local_type in ("int", "long", "short", "integer"):
        try:
            return int(text.strip())
        except ValueError as exc:
            raise MarshallingError(f"bad int literal {text!r}") from exc
    if local_type in ("double", "float", "decimal"):
        try:
            return float(text.strip())
        except ValueError as exc:
            raise MarshallingError(f"bad float literal {text!r}") from exc
    if local_type == "string":
        return text
    if local_type == "base64":
        try:
            return base64.b64decode(text.strip().encode("ascii"))
        except Exception as exc:
            raise MarshallingError(f"bad base64 payload: {exc}") from exc
    if local_type == "Array":
        return [decode_value(item) for item in element]
    if local_type == "Struct":
        return {local_name(member): decode_value(member) for member in element}
    raise MarshallingError(f"unknown xsi:type {type_attr!r} on {local_name(element)!r}")


# ---------------------------------------------------------------------------
# Envelope construction
# ---------------------------------------------------------------------------


def _open_envelope(writer: XmlWriter) -> None:
    writer.open("SOAP-ENV:Envelope", _ENVELOPE_ATTRS)
    writer.open("SOAP-ENV:Body")


def _close_envelope(writer: XmlWriter) -> None:
    writer.close()  # Body
    writer.close()  # Envelope


def build_request(operation: str, args: list[Any], service_ns: str = DEFAULT_SERVICE_NS) -> bytes:
    """RPC request: ``<m:operation><arg0/>...</m:operation>``."""
    if not is_xml_name(operation):
        raise SoapError(f"operation name {operation!r} is not a valid XML name")
    writer = _borrow_writer()
    try:
        _open_envelope(writer)
        writer.open(f"m:{operation}", {"xmlns:m": service_ns})
        for index, value in enumerate(args):
            encode_value(writer, f"arg{index}", value)
        writer.close()
        _close_envelope(writer)
        return writer.tobytes()
    finally:
        _release_writer(writer)


def build_response(operation: str, value: Any, service_ns: str = DEFAULT_SERVICE_NS) -> bytes:
    """RPC response: ``<m:operationResponse><return/></m:operationResponse>``."""
    if not is_xml_name(operation):
        raise SoapError(f"operation name {operation!r} is not a valid XML name")
    writer = _borrow_writer()
    try:
        _open_envelope(writer)
        writer.open(f"m:{operation}Response", {"xmlns:m": service_ns})
        encode_value(writer, "return", value)
        writer.close()
        _close_envelope(writer)
        return writer.tobytes()
    finally:
        _release_writer(writer)


def build_fault(faultcode: str, faultstring: str, detail: str = "") -> bytes:
    """SOAP Fault envelope."""
    writer = _borrow_writer()
    try:
        _open_envelope(writer)
        writer.open("SOAP-ENV:Fault")
        writer.leaf("faultcode", text=faultcode)
        writer.leaf("faultstring", text=faultstring)
        if detail:
            writer.leaf("detail", text=detail)
        writer.close()
        _close_envelope(writer)
        return writer.tobytes()
    finally:
        _release_writer(writer)


# ---------------------------------------------------------------------------
# Terse encoding (negotiated on the modern wire)
# ---------------------------------------------------------------------------

#: Marker for the terse wire format (root element of every terse envelope).
TERSE_ROOT = "E"

_TERSE_TYPES = {"i", "d", "s", "b", "x", "z", "a", "r"}


def encode_value_terse(writer: XmlWriter, value: Any, name: str = "") -> None:
    """Append one ``<v t=...>`` element (``n=`` names struct members)."""
    attrs: dict[str, str] = {"n": name} if name else {}
    if value is None:
        attrs["t"] = "z"
        writer.leaf("v", attrs)
    elif isinstance(value, bool):  # before int: bool is an int subclass
        attrs["t"] = "b"
        writer.leaf("v", attrs, "1" if value else "0")
    elif isinstance(value, int):
        attrs["t"] = "i"
        writer.leaf("v", attrs, str(value))
    elif isinstance(value, float):
        attrs["t"] = "d"
        writer.leaf("v", attrs, repr(value))
    elif isinstance(value, str):
        attrs["t"] = "s"
        writer.leaf("v", attrs, value)
    elif isinstance(value, (bytes, bytearray)):
        attrs["t"] = "x"
        writer.leaf("v", attrs, base64.b64encode(bytes(value)).decode("ascii"))
    elif isinstance(value, (list, tuple)):
        attrs["t"] = "a"
        writer.open("v", attrs)
        for item in value:
            encode_value_terse(writer, item)
        writer.close()
    elif isinstance(value, dict):
        attrs["t"] = "r"
        writer.open("v", attrs)
        for key, member in value.items():
            if not isinstance(key, str) or not is_xml_name(key):
                raise MarshallingError(
                    f"struct keys must be XML-name-like strings, got {key!r}"
                )
            encode_value_terse(writer, member, name=key)
        writer.close()
    else:
        raise MarshallingError(f"cannot SOAP-encode value of type {type(value).__name__}")


def decode_value_terse(element: ET.Element) -> Any:
    """Inverse of :func:`encode_value_terse`."""
    kind = element.get("t", "")
    text = element.text or ""
    if kind == "z":
        return None
    if kind == "b":
        return text.strip() == "1"
    if kind == "i":
        try:
            return int(text.strip())
        except ValueError as exc:
            raise MarshallingError(f"bad int literal {text!r}") from exc
    if kind == "d":
        try:
            return float(text.strip())
        except ValueError as exc:
            raise MarshallingError(f"bad float literal {text!r}") from exc
    if kind == "s":
        return text
    if kind == "x":
        try:
            return base64.b64decode(text.strip().encode("ascii"))
        except Exception as exc:
            raise MarshallingError(f"bad base64 payload: {exc}") from exc
    if kind == "a":
        return [decode_value_terse(item) for item in element]
    if kind == "r":
        members: dict[str, Any] = {}
        for member in element:
            key = member.get("n", "")
            if not key:
                raise MarshallingError("terse struct member missing n= name")
            members[key] = decode_value_terse(member)
        return members
    raise MarshallingError(f"unknown terse type code {kind!r}")


def build_request_terse(operation: str, args: list[Any]) -> bytes:
    """Terse request: ``<E><Q n="op"><v .../>...</Q></E>``."""
    if not is_xml_name(operation):
        raise SoapError(f"operation name {operation!r} is not a valid XML name")
    writer = _borrow_writer(declaration=False)
    try:
        writer.open(TERSE_ROOT)
        writer.open("Q", {"n": operation})
        for value in args:
            encode_value_terse(writer, value)
        writer.close()
        writer.close()
        return writer.tobytes()
    finally:
        _release_writer(writer)


def build_response_terse(operation: str, value: Any) -> bytes:
    """Terse response: ``<E><R n="op"><v .../></R></E>``."""
    if not is_xml_name(operation):
        raise SoapError(f"operation name {operation!r} is not a valid XML name")
    writer = _borrow_writer(declaration=False)
    try:
        writer.open(TERSE_ROOT)
        writer.open("R", {"n": operation})
        encode_value_terse(writer, value)
        writer.close()
        writer.close()
        return writer.tobytes()
    finally:
        _release_writer(writer)


def build_fault_terse(faultcode: str, faultstring: str, detail: str = "") -> bytes:
    """Terse fault: ``<E><F c=... s=... d=.../></E>``."""
    writer = _borrow_writer(declaration=False)
    try:
        writer.open(TERSE_ROOT)
        attrs = {"c": faultcode, "s": faultstring}
        if detail:
            attrs["d"] = detail
        writer.leaf("F", attrs)
        writer.close()
        return writer.tobytes()
    finally:
        _release_writer(writer)


def _parse_terse(root: ET.Element) -> SoapMessage:
    entries = list(root)
    if not entries:
        raise SoapError("terse envelope is empty")
    entry = entries[0]
    if entry.tag == "F":
        return SoapMessage(
            kind="fault",
            faultcode=entry.get("c", "SOAP-ENV:Server"),
            faultstring=entry.get("s", ""),
            detail=entry.get("d", ""),
            wire_format="terse",
        )
    operation = entry.get("n", "")
    if not operation:
        raise SoapError("terse envelope entry missing n= operation name")
    if entry.tag == "R":
        value_elements = list(entry)
        value = decode_value_terse(value_elements[0]) if value_elements else None
        return SoapMessage(
            kind="response", operation=operation, value=value, wire_format="terse"
        )
    if entry.tag == "Q":
        args = [decode_value_terse(child) for child in entry]
        return SoapMessage(
            kind="request", operation=operation, args=args, wire_format="terse"
        )
    raise SoapError(f"unknown terse entry {entry.tag!r}")


# ---------------------------------------------------------------------------
# Event-channel grammar (push event interchange)
# ---------------------------------------------------------------------------
#
# Two message shapes ride the push event channel, both under the terse
# root, so they read as modern-wire traffic:
#
# - wait (subscriber -> publisher): ``<E><W i="island" a="ack" h="hold"/></E>``
#   — arm a held exchange.  ``a`` acknowledges the highest batch id the
#   subscriber has fully delivered; ``h`` is the longest the publisher may
#   park the exchange before answering with an empty keepalive frame.
# - frame (publisher -> subscriber): ``<E><V b="batch"><v .../>...</V></E>``
#   — one coalesced batch of events (terse-encoded structs).  ``b`` is the
#   publisher's per-subscriber batch id; an empty ``<V b="...">`` is a
#   keepalive carrying nothing new.


def build_event_wait(island: str, ack: int, hold: float) -> bytes:
    """Wait request: ``<E><W i="island" a="ack" h="hold"/></E>``."""
    writer = _borrow_writer(declaration=False)
    try:
        writer.open(TERSE_ROOT)
        writer.leaf("W", {"i": island, "a": str(int(ack)), "h": repr(float(hold))})
        writer.close()
        return writer.tobytes()
    finally:
        _release_writer(writer)


def parse_event_wait(data: bytes) -> tuple[str, int, float]:
    """Inverse of :func:`build_event_wait` -> ``(island, ack, hold)``."""
    root = xmlutil.parse_document(data)
    if root.tag != TERSE_ROOT:
        raise SoapError(f"event wait root is {root.tag!r}, not <{TERSE_ROOT}>")
    entries = list(root)
    if not entries or entries[0].tag != "W":
        raise SoapError("event wait envelope carries no <W> entry")
    entry = entries[0]
    island = entry.get("i", "")
    if not island:
        raise SoapError("event wait missing i= subscriber island")
    try:
        ack = int(entry.get("a", "0"))
        hold = float(entry.get("h", "0"))
    except ValueError as exc:
        raise SoapError(f"bad event wait attributes: {exc}") from exc
    return island, ack, hold


def build_event_frame(batch: int, events: list[Any]) -> bytes:
    """Event frame: ``<E><V b="batch">`` + one terse value per event."""
    writer = _borrow_writer(declaration=False)
    try:
        writer.open(TERSE_ROOT)
        writer.open("V", {"b": str(int(batch))})
        for event in events:
            encode_value_terse(writer, event)
        writer.close()
        writer.close()
        return writer.tobytes()
    finally:
        _release_writer(writer)


def parse_event_frame(data: bytes) -> tuple[int, list[Any]]:
    """Inverse of :func:`build_event_frame` -> ``(batch, events)``."""
    root = xmlutil.parse_document(data)
    if root.tag != TERSE_ROOT:
        raise SoapError(f"event frame root is {root.tag!r}, not <{TERSE_ROOT}>")
    entries = list(root)
    if not entries or entries[0].tag != "V":
        raise SoapError("event frame envelope carries no <V> entry")
    entry = entries[0]
    try:
        batch = int(entry.get("b", "0"))
    except ValueError as exc:
        raise SoapError(f"bad event frame batch id: {exc}") from exc
    return batch, [decode_value_terse(child) for child in entry]


# ---------------------------------------------------------------------------
# Envelope parsing
# ---------------------------------------------------------------------------


def parse_envelope(data: bytes) -> SoapMessage:
    """Parse any envelope shape produced above, verbose or terse."""
    root = xmlutil.parse_document(data)
    if root.tag == TERSE_ROOT:
        return _parse_terse(root)
    if root.tag != xmlutil.qname(SOAP_ENV_NS, "Envelope"):
        raise SoapError(f"root element is {root.tag!r}, not a SOAP Envelope")
    body = xmlutil.require_child(root, SOAP_ENV_NS, "Body")
    entries = list(body)
    if not entries:
        raise SoapError("SOAP Body is empty")
    entry = entries[0]

    if entry.tag == xmlutil.qname(SOAP_ENV_NS, "Fault"):
        fields = {local_name(child): (child.text or "") for child in entry}
        return SoapMessage(
            kind="fault",
            faultcode=fields.get("faultcode", "SOAP-ENV:Server"),
            faultstring=fields.get("faultstring", ""),
            detail=fields.get("detail", ""),
        )

    name = local_name(entry)
    if name.endswith("Response"):
        operation = name[: -len("Response")]
        value_elements = list(entry)
        value = decode_value(value_elements[0]) if value_elements else None
        return SoapMessage(kind="response", operation=operation, value=value)

    args = [decode_value(child) for child in entry]
    return SoapMessage(kind="request", operation=name, args=args)

