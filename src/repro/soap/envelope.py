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

The codec is memoised where its inputs repeat.  On the 2002 wire a home
repeats itself (event polls and their empty replies, the same switch set
on and off), so :func:`parse_envelope` of a verbose envelope,
:func:`build_request` and :func:`build_response` each remember their last
:data:`CODEC_MEMO_SIZE` distinct inputs; so does
:func:`build_response_terse`, as devices answer alike on the modern wire.
Terse requests and terse envelopes read on the modern wire rarely repeat
(a directory lookup names one of thousands of services), so those are
built and parsed afresh: a memo that seldom hits only adds its key.  The
rule is that a memo can never answer differently from the codec:

- the parser is keyed on the ``bytes`` alone (any other input type is
  parsed afresh), and every hit returns a fresh :class:`SoapMessage` with
  fresh lists and dicts, so a caller that changes the args or value it got
  changes nothing the memo holds;
- the builders are keyed on a type-exact image of their input
  (:func:`_value_key`): ``True``, ``1`` and ``1.0`` differ, ``-0.0``
  differs from ``0.0``, and dict order counts.  A value of any other type
  (``bytearray``, a subclass, a dict with a non-string key) bypasses the
  memo, so the codec renders it or raises as it always has;
- a failure is raised, never remembered, so it is raised again on every
  call.
"""

from __future__ import annotations

import base64
import functools
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any

from repro.errors import MarshallingError, SoapError
from repro.soap import xmlutil
from repro.soap.xmlutil import (
    ATTR_VALUE,
    SOAP_ENC_NS,
    SOAP_ENV_NS,
    XML_DECLARATION,
    XML_NAME,
    XSD_NS,
    XSI_NS,
    escape_attr,
    escape_text,
    is_xml_name,
    local_name,
    plain_bytes,
    unescape_attr,
)

#: Default namespace for application payload elements.
DEFAULT_SERVICE_NS = "urn:repro-vsg"
#: Distinct inputs each memo of the codec remembers, sized like the gzip
#: memo (:data:`repro.soap.http.GZIP_MEMO_SIZE`).
CODEC_MEMO_SIZE = 64

#: Everything a verbose envelope carries before its body entry.
_ENVELOPE_HEAD = (
    f'{XML_DECLARATION}<SOAP-ENV:Envelope xmlns:SOAP-ENV="{SOAP_ENV_NS}"'
    f' xmlns:SOAP-ENC="{SOAP_ENC_NS}" xmlns:xsi="{XSI_NS}" xmlns:xsd="{XSD_NS}"'
    f' SOAP-ENV:encodingStyle="{SOAP_ENC_NS}"><SOAP-ENV:Body>'
)
_ENVELOPE_TAIL = "</SOAP-ENV:Body></SOAP-ENV:Envelope>"


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


def encode_value(parts: list[str], tag: str, value: Any) -> None:
    """Append ``<tag xsi:type=...>`` markup for one value to ``parts``."""
    if value is None:
        parts.append(f'<{tag} xsi:nil="true"/>')
    elif isinstance(value, bool):  # before int: bool is an int subclass
        parts.append(
            f'<{tag} xsi:type="xsd:boolean">{"true" if value else "false"}</{tag}>'
        )
    elif isinstance(value, int):
        parts.append(f'<{tag} xsi:type="xsd:int">{value!s}</{tag}>')
    elif isinstance(value, float):
        parts.append(f'<{tag} xsi:type="xsd:double">{value!r}</{tag}>')
    elif isinstance(value, str):
        parts.append(f'<{tag} xsi:type="xsd:string">{escape_text(value)}</{tag}>')
    elif isinstance(value, (bytes, bytearray)):
        encoded = base64.b64encode(bytes(value)).decode("ascii")
        parts.append(f'<{tag} xsi:type="SOAP-ENC:base64">{encoded}</{tag}>')
    elif isinstance(value, (list, tuple)):
        parts.append(
            f'<{tag} xsi:type="SOAP-ENC:Array"'
            f' SOAP-ENC:arrayType="xsd:anyType[{len(value)}]">'
        )
        for item in value:
            encode_value(parts, "item", item)
        parts.append(f"</{tag}>")
    elif isinstance(value, dict):
        parts.append(f'<{tag} xsi:type="SOAP-ENC:Struct">')
        for key, member in value.items():
            if not isinstance(key, str) or not is_xml_name(key):
                raise MarshallingError(
                    f"struct keys must be XML-name-like strings, got {key!r}"
                )
            encode_value(parts, key, member)
        parts.append(f"</{tag}>")
    else:
        raise MarshallingError(f"cannot SOAP-encode value of type {type(value).__name__}")


def decode_value(element: ET.Element) -> Any:
    """Inverse of :func:`encode_value`."""
    if xmlutil.attr(element, XSI_NS, "nil") == "true":
        return None
    type_attr = xmlutil.attr(element, XSI_NS, "type") or ""
    local_type = type_attr.rpartition(":")[2]
    if local_type == "Array":
        return [decode_value(item) for item in element]
    if local_type == "Struct":
        return {local_name(member): decode_value(member) for member in element}
    if local_type not in _XSD_SCALARS:
        raise MarshallingError(f"unknown xsi:type {type_attr!r} on {local_name(element)!r}")
    return _xsd_scalar(local_type, element.text or "")


_XSD_INTS = ("int", "long", "short", "integer")
_XSD_FLOATS = ("double", "float", "decimal")
_XSD_SCALARS = frozenset(("boolean", "string", "base64", *_XSD_INTS, *_XSD_FLOATS))


def _xsd_scalar(local_type: str, text: str) -> Any:
    """A value of the scalar xsi:type ``local_type`` (one of
    ``_XSD_SCALARS``) from its character data."""
    if local_type == "string":
        return text
    if local_type == "boolean":
        return text.strip() in ("true", "1")
    if local_type in _XSD_INTS:
        try:
            return int(text.strip())
        except ValueError as exc:
            raise MarshallingError(f"bad int literal {text!r}") from exc
    if local_type in _XSD_FLOATS:
        try:
            return float(text.strip())
        except ValueError as exc:
            raise MarshallingError(f"bad float literal {text!r}") from exc
    try:  # base64, the one scalar left
        return base64.b64decode(text.strip().encode("ascii"))
    except Exception as exc:
        raise MarshallingError(f"bad base64 payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Envelope construction
# ---------------------------------------------------------------------------


def _build_request(operation: str, args: list[Any], service_ns: str = DEFAULT_SERVICE_NS) -> bytes:
    """RPC request: ``<m:operation><arg0/>...</m:operation>``."""
    if not is_xml_name(operation):
        raise SoapError(f"operation name {operation!r} is not a valid XML name")
    parts = [_ENVELOPE_HEAD, f'<m:{operation} xmlns:m="{escape_attr(service_ns)}">']
    for index, value in enumerate(args):
        encode_value(parts, f"arg{index}", value)
    parts.append(f"</m:{operation}>{_ENVELOPE_TAIL}")
    return "".join(parts).encode("utf-8")


def _build_response(operation: str, value: Any, service_ns: str = DEFAULT_SERVICE_NS) -> bytes:
    """RPC response: ``<m:operationResponse><return/></m:operationResponse>``."""
    if not is_xml_name(operation):
        raise SoapError(f"operation name {operation!r} is not a valid XML name")
    parts = [
        _ENVELOPE_HEAD,
        f'<m:{operation}Response xmlns:m="{escape_attr(service_ns)}">',
    ]
    encode_value(parts, "return", value)
    parts.append(f"</m:{operation}Response>{_ENVELOPE_TAIL}")
    return "".join(parts).encode("utf-8")


def build_fault(faultcode: str, faultstring: str, detail: str = "") -> bytes:
    """SOAP Fault envelope."""
    detail_element = f"<detail>{escape_text(detail)}</detail>" if detail else ""
    return (
        f"{_ENVELOPE_HEAD}<SOAP-ENV:Fault><faultcode>{escape_text(faultcode)}</faultcode>"
        f"<faultstring>{escape_text(faultstring)}</faultstring>{detail_element}"
        f"</SOAP-ENV:Fault>{_ENVELOPE_TAIL}"
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# Terse encoding (negotiated on the modern wire)
# ---------------------------------------------------------------------------

#: Marker for the terse wire format (root element of every terse envelope).
TERSE_ROOT = "E"


def encode_value_terse(parts: list[str], value: Any, name: str = "") -> None:
    """Append one ``<v t=...>`` element to ``parts`` (``n=`` names struct
    members; a member name is an XML name, so it needs no escaping)."""
    head = f'<v n="{name}" t="' if name else '<v t="'
    if value is None:
        parts.append(head + 'z"/>')
    elif isinstance(value, bool):  # before int: bool is an int subclass
        parts.append(head + ('b">1</v>' if value else 'b">0</v>'))
    elif isinstance(value, int):
        parts.append(f'{head}i">{value!s}</v>')
    elif isinstance(value, float):
        parts.append(f'{head}d">{value!r}</v>')
    elif isinstance(value, str):
        parts.append(f'{head}s">{escape_text(value)}</v>')
    elif isinstance(value, (bytes, bytearray)):
        parts.append(f'{head}x">{base64.b64encode(bytes(value)).decode("ascii")}</v>')
    elif isinstance(value, (list, tuple)):
        parts.append(head + 'a">')
        for item in value:
            encode_value_terse(parts, item)
        parts.append("</v>")
    elif isinstance(value, dict):
        parts.append(head + 'r">')
        for key, member in value.items():
            if not isinstance(key, str) or not is_xml_name(key):
                raise MarshallingError(
                    f"struct keys must be XML-name-like strings, got {key!r}"
                )
            encode_value_terse(parts, member, key)
        parts.append("</v>")
    else:
        raise MarshallingError(f"cannot SOAP-encode value of type {type(value).__name__}")


def _terse_scalar(kind: str, text: str) -> Any:
    """A ``b``/``i``/``d``/``s``/``x`` value from its character data."""
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
    raise MarshallingError(f"unknown terse type code {kind!r}")


def decode_value_terse(element: ET.Element) -> Any:
    """Inverse of :func:`encode_value_terse`."""
    kind = element.get("t", "")
    if kind == "z":
        return None
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
    return _terse_scalar(kind, element.text or "")


def build_request_terse(operation: str, args: list[Any]) -> bytes:
    """Terse request: ``<E><Q n="op"><v .../>...</Q></E>``."""
    if not is_xml_name(operation):
        raise SoapError(f"operation name {operation!r} is not a valid XML name")
    parts = [f'<E><Q n="{operation}">']
    for value in args:
        encode_value_terse(parts, value)
    parts.append("</Q></E>")
    return "".join(parts).encode("utf-8")


def _build_response_terse(operation: str, value: Any) -> bytes:
    """Terse response: ``<E><R n="op"><v .../></R></E>``."""
    if not is_xml_name(operation):
        raise SoapError(f"operation name {operation!r} is not a valid XML name")
    parts = [f'<E><R n="{operation}">']
    encode_value_terse(parts, value)
    parts.append("</R></E>")
    return "".join(parts).encode("utf-8")


def build_fault_terse(faultcode: str, faultstring: str, detail: str = "") -> bytes:
    """Terse fault: ``<E><F c=... s=... d=.../></E>``."""
    detail_attr = f' d="{escape_attr(detail)}"' if detail else ""
    return (
        f'<E><F c="{escape_attr(faultcode)}" s="{escape_attr(faultstring)}"{detail_attr}/></E>'
    ).encode("utf-8")


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
# Terse reader: the closed grammar the builders above emit, without a parser
# ---------------------------------------------------------------------------
#
# Every ``*_terse``/event builder writes one of a few fixed shapes, so a
# reader for exactly those shapes skips ElementTree (whose parser alone costs
# more than a whole small envelope).  The reader is one left-to-right scan:
# anchored tag matches, character data cut at the next ``<`` and unescaped
# once.  It answers only when the input is wholly one of the shapes and
# every value decodes.  Anything else -- another attribute order,
# whitespace between elements, an entity the builders never write, a
# character the parser would reject or normalise, trailing bytes, a value
# that fails to decode -- returns None and the caller parses the same bytes
# with ElementTree, so the two paths give equal results or raise the same
# exception type.  Which path runs depends on the input alone.

#: One token of a run of terse values, matched at every offset by
#: ``findall`` (the last group takes any other text, so the tokens tile the
#: run).  Groups: member name, type code, ``/`` of an empty element, a
#: leaf's character data and its ``</v>``, a container's ``</v>``, other.
_VALUE_TOKEN = re.compile(
    rf'<v(?: n="({XML_NAME})")? t="([a-z])"(?:(/)>|>(?:([^<]*)(</v>))?)|(</v>)|(<|[^<]+)'
)
_ENTRY_HEAD = re.compile(rf'<E><([QR]) n="({XML_NAME})">')
_FAULT = re.compile(
    rf'<E><F c="({ATTR_VALUE})" s="({ATTR_VALUE})"(?: d="({ATTR_VALUE})")?/></E>'
)
_FRAME_HEAD = re.compile(r'<E><V b="(-?[0-9]{1,18})">')
_WAIT = re.compile(rf'<E><W i="({ATTR_VALUE})" a="(-?[0-9]{{1,18}})" h="([0-9a-z.+\-]+)"/></E>')
#: Containers nest no deeper than this on the reader's path; deeper input
#: goes to ElementTree, whose recursive decode has a depth limit of its own.
_MAX_DEPTH = 64


def _character_data(body: str) -> str | None:
    """Character data as :func:`~repro.soap.xmlutil.escape_text` renders
    it, unescaped; None when it holds a ``>`` (the parser rejects ``]]>``)
    or an entity the builders never write."""
    if ">" in body:
        return None
    if "&" not in body:
        return body
    value = body.replace("&lt;", "<").replace("&gt;", ">")
    if "&" in value:
        if value.count("&") != value.count("&amp;"):
            return None
        value = value.replace("&amp;", "&")
    return value


def _read_values(text: str, start: int, end: int) -> list[Any] | None:
    """The run of terse values in ``text[start:end]``, or None when it is
    not exactly the builders' shape or does not decode."""
    top: list[Any] = []
    container: Any = top
    stack: list[Any] = []
    try:
        for name, kind, empty, body, leaf, close, _other in _VALUE_TOKEN.findall(
            text, start, end
        ):
            opens = False
            if leaf:  # <v t="k">character data</v>
                if kind == "s":
                    value = _character_data(body)
                    if value is None:
                        return None
                elif "&" in body or ">" in body:  # the builders escape only strings
                    return None
                elif kind == "a" or kind == "r":
                    if body:
                        return None
                    value = [] if kind == "a" else {}
                else:
                    value = _terse_scalar(kind, body)
            elif close:
                if not stack:
                    return None
                container = stack.pop()
                continue
            elif empty:  # <v t="z"/>
                if kind != "z":
                    return None
                value = None
            elif kind == "a" or kind == "r":  # a container's open tag
                if len(stack) == _MAX_DEPTH:
                    return None
                value = [] if kind == "a" else {}
                opens = True
            else:  # a leaf's open tag without its text, or other text
                return None
            if container.__class__ is dict:
                if not name:
                    return None
                container[name] = value
            else:
                container.append(value)
            if opens:
                stack.append(container)
                container = value
    except MarshallingError:
        return None
    return None if stack else top


def _read_terse(data: bytes) -> SoapMessage | None:
    """A terse request, response or fault read without a parser, or None
    (see above)."""
    if not plain_bytes(data):
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    head = _ENTRY_HEAD.match(text)
    if head is None:
        fault = _FAULT.fullmatch(text)
        if fault is None:
            return None
        code, string, detail = fault.groups()
        return SoapMessage(
            kind="fault",
            faultcode=unescape_attr(code),
            faultstring=unescape_attr(string),
            detail=unescape_attr(detail) if detail else "",
            wire_format="terse",
        )
    entry, operation = head.groups()
    if not text.endswith("</Q></E>" if entry == "Q" else "</R></E>"):
        return None
    values = _read_values(text, head.end(), len(text) - 8)
    if values is None:
        return None
    if entry == "Q":
        return SoapMessage(
            kind="request", operation=operation, args=values, wire_format="terse"
        )
    if len(values) != 1:
        return None
    return SoapMessage(
        kind="response", operation=operation, value=values[0], wire_format="terse"
    )


# ---------------------------------------------------------------------------
# Verbose reader: the SOAP 1.1 shapes build_request/response/fault render
# ---------------------------------------------------------------------------
#
# The same idea as the terse reader, for the 2002 wire: the fixed envelope
# head and tail, one ``<m:op xmlns:m="...">`` entry (or the fault's three
# fixed fields) and a tiling of value tokens, each a ``<tag xsi:nil="true"/>``,
# a typed leaf with its character data and matching close tag, or a typed
# Array/Struct open tag closed later by name.  Only the ``xsi:type`` values
# the builders write are read; anything else returns None and the caller
# parses the same bytes with ElementTree.

#: Groups: element name, ``/`` of a nil, the ``xsi:type`` value, a leaf's
#: character data and its close tag, a container's close-tag name, other.
_VERBOSE_TOKEN = re.compile(
    rf'<({XML_NAME}) xsi:(?:nil="true"(/)>|type="([^"]*)"'
    r'(?: SOAP-ENC:arrayType="xsd:anyType\[[0-9]+\]")?>(?:([^<]*)(</\1>))?)'
    rf"|</({XML_NAME})>|(<|[^<]+)"
)
#: ``xsi:type`` as the builders write it -> its local name.
_VERBOSE_TYPES = {
    "xsd:boolean": "boolean",
    "xsd:int": "int",
    "xsd:double": "double",
    "xsd:string": "string",
    "SOAP-ENC:base64": "base64",
    "SOAP-ENC:Array": "Array",
    "SOAP-ENC:Struct": "Struct",
}
_VERBOSE_ENTRY = re.compile(rf'<m:({XML_NAME}) xmlns:m="({ATTR_VALUE})">')
_VERBOSE_FAULT = re.compile(
    r"<SOAP-ENV:Fault><faultcode>([^<]*)</faultcode><faultstring>([^<]*)</faultstring>"
    r"(?:<detail>([^<]*)</detail>)?</SOAP-ENV:Fault>"
)
#: Entry namespaces left to ElementTree: those the parser refuses to bind
#: ``m`` to, and SOAP-ENV's own (where an entry named Fault is a fault).
_NOT_SERVICE_NS = (
    "",
    "http://www.w3.org/XML/1998/namespace",
    "http://www.w3.org/2000/xmlns/",
    SOAP_ENV_NS,
)


def _read_verbose_values(text: str, start: int, end: int) -> list[Any] | None:
    """The run of verbose values in ``text[start:end]``, or None when it is
    not exactly the builders' shape or does not decode."""
    top: list[Any] = []
    container: Any = top
    #: (enclosing container, element name) per open Array/Struct.
    stack: list[tuple[Any, str]] = []
    try:
        for name, nil, xsi_type, body, leaf, close, _other in _VERBOSE_TOKEN.findall(
            text, start, end
        ):
            opens = False
            if leaf:  # <name xsi:type="...">character data</name>
                kind = _VERBOSE_TYPES.get(xsi_type)
                if kind == "string":
                    value = _character_data(body)
                    if value is None:
                        return None
                elif kind is None or "&" in body or ">" in body:
                    return None
                elif kind == "Array" or kind == "Struct":
                    if body:
                        return None
                    value = [] if kind == "Array" else {}
                else:
                    value = _xsd_scalar(kind, body)
            elif close:
                if not stack:
                    return None
                container, opened = stack.pop()
                if opened != close:
                    return None
                continue
            elif nil:  # <name xsi:nil="true"/>
                value = None
            elif xsi_type == "SOAP-ENC:Array" or xsi_type == "SOAP-ENC:Struct":
                if len(stack) == _MAX_DEPTH:
                    return None
                value = [] if xsi_type == "SOAP-ENC:Array" else {}
                opens = True
            else:  # a leaf's open tag without its text, or other text
                return None
            if container.__class__ is dict:
                container[name] = value  # struct keys are local names
            else:
                container.append(value)
            if opens:
                stack.append((container, name))
                container = value
    except MarshallingError:
        return None
    return None if stack else top


def _read_verbose(data: bytes) -> SoapMessage | None:
    """A verbose request, response or fault read without a parser, or None
    (see above)."""
    if not plain_bytes(data):
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not (text.startswith(_ENVELOPE_HEAD) and text.endswith(_ENVELOPE_TAIL)):
        return None
    start, end = len(_ENVELOPE_HEAD), len(text) - len(_ENVELOPE_TAIL)
    entry = _VERBOSE_ENTRY.match(text, start, end)
    if entry is None:
        fault = _VERBOSE_FAULT.fullmatch(text, start, end)
        if fault is None:
            return None
        code, string, detail = (_character_data(part or "") for part in fault.groups())
        if code is None or string is None or detail is None:
            return None
        return SoapMessage(kind="fault", faultcode=code, faultstring=string, detail=detail)
    name, namespace = entry.groups()
    if namespace in _NOT_SERVICE_NS or "}" in namespace:  # ET's separator
        return None
    close = f"</m:{name}>"
    if not text.endswith(close, entry.end(), end):
        return None
    values = _read_verbose_values(text, entry.end(), end - len(close))
    if values is None:
        return None
    if not name.endswith("Response"):
        return SoapMessage(kind="request", operation=name, args=values)
    # As ElementTree reads it: the first child is the value, none is None.
    return SoapMessage(
        kind="response", operation=name[: -len("Response")], value=values[0] if values else None
    )


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
    return (
        f'<E><W i="{escape_attr(island)}" a="{int(ack)!s}" h="{float(hold)!r}"/></E>'
    ).encode("utf-8")


def parse_event_wait(data: bytes) -> tuple[str, int, float]:
    """Inverse of :func:`build_event_wait` -> ``(island, ack, hold)``."""
    if data[:3] == b"<E>":
        wait = _read_event_wait(data)
        if wait is not None:
            return wait
    return _parse_event_wait_tree(data)


def _parse_event_wait_tree(data: bytes) -> tuple[str, int, float]:
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


def _read_event_wait(data: bytes) -> tuple[str, int, float] | None:
    try:
        wait = _WAIT.fullmatch(data.decode("utf-8"))
    except UnicodeDecodeError:
        return None
    if wait is None or not wait.group(1):
        return None
    try:
        hold = float(wait.group(3))
    except ValueError:
        return None
    return unescape_attr(wait.group(1)), int(wait.group(2)), hold


def build_event_frame(batch: int, events: list[Any]) -> bytes:
    """Event frame: ``<E><V b="batch">`` + one terse value per event."""
    parts = [f'<E><V b="{int(batch)!s}">']
    for event in events:
        encode_value_terse(parts, event)
    parts.append("</V></E>")
    return "".join(parts).encode("utf-8")


def parse_event_frame(data: bytes) -> tuple[int, list[Any]]:
    """Inverse of :func:`build_event_frame` -> ``(batch, events)``."""
    if data[:3] == b"<E>":
        frame = _read_event_frame(data)
        if frame is not None:
            return frame
    return _parse_event_frame_tree(data)


def _parse_event_frame_tree(data: bytes) -> tuple[int, list[Any]]:
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


def _read_event_frame(data: bytes) -> tuple[int, list[Any]] | None:
    if not plain_bytes(data):
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    head = _FRAME_HEAD.match(text)
    if head is None or not text.endswith("</V></E>"):
        return None
    events = _read_values(text, head.end(), len(text) - 8)
    if events is None:
        return None
    return int(head.group(1)), events


# ---------------------------------------------------------------------------
# Envelope parsing
# ---------------------------------------------------------------------------


def _parse_envelope(data: bytes) -> SoapMessage:
    """Parse any envelope shape produced above, verbose or terse.  Both are
    read by :func:`_read_verbose` or :func:`_read_terse` when they are
    exactly the builders' shape; everything else goes through
    ElementTree."""
    if data[:5] == b"<?xml":
        message = _read_verbose(data)
        if message is not None:
            return message
    elif data[:3] == b"<E>":
        message = _read_terse(data)
        if message is not None:
            return message
    return _parse_tree(data)


def _parse_tree(data: bytes) -> SoapMessage:
    """Any envelope, verbose or terse, through ElementTree."""
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


# ---------------------------------------------------------------------------
# The memoised codec (see the module docstring)
# ---------------------------------------------------------------------------


class _Unmemoisable(Exception):
    """A value the builder memos do not key; the codec handles it afresh."""


def _value_key(value: Any) -> Any:
    """A hashable image of ``value`` that two values share only when every
    builder renders them alike, and from which :func:`_thaw` rebuilds one
    of them.  Raises :class:`_Unmemoisable` for anything else."""
    cls = value.__class__
    if cls is str or value is None:
        return value
    if cls is bool or cls is int or cls is bytes:
        return (cls, value)
    if cls is float:
        return (float, repr(value))  # both builders render a float's repr
    if cls is list or cls is tuple:  # rendered alike
        return (list, tuple(map(_value_key, value)))
    if cls is dict:
        members = []
        for key, member in value.items():
            if key.__class__ is not str:
                raise _Unmemoisable
            members.append((key, _value_key(member)))
        return (dict, tuple(members))
    raise _Unmemoisable


def _thaw(key: Any) -> Any:
    """A value of the key :func:`_value_key` gave."""
    if key is None or key.__class__ is str:
        return key
    kind, body = key
    if kind is float:
        return float(body)
    if kind is list:
        return [_thaw(item) for item in body]
    if kind is dict:
        return {name: _thaw(member) for name, member in body}
    return body


@functools.lru_cache(maxsize=CODEC_MEMO_SIZE)
def _request_memo(operation: str, args: tuple, service_ns: str) -> bytes:
    return _build_request(operation, [_thaw(key) for key in args], service_ns)


@functools.lru_cache(maxsize=CODEC_MEMO_SIZE)
def _response_memo(operation: str, value: Any, service_ns: str, terse: bool) -> bytes:
    if terse:
        return _build_response_terse(operation, _thaw(value))
    return _build_response(operation, _thaw(value), service_ns)


def build_request(operation: str, args: list[Any], service_ns: str = DEFAULT_SERVICE_NS) -> bytes:
    """RPC request: ``<m:operation><arg0/>...</m:operation>``."""
    if (
        operation.__class__ is str
        and service_ns.__class__ is str
        and args.__class__ in (list, tuple)
    ):
        try:
            return _request_memo(operation, tuple(map(_value_key, args)), service_ns)
        except _Unmemoisable:
            pass
    return _build_request(operation, args, service_ns)


def build_response(operation: str, value: Any, service_ns: str = DEFAULT_SERVICE_NS) -> bytes:
    """RPC response: ``<m:operationResponse><return/></m:operationResponse>``."""
    if operation.__class__ is str and service_ns.__class__ is str:
        try:
            return _response_memo(operation, _value_key(value), service_ns, False)
        except _Unmemoisable:
            pass
    return _build_response(operation, value, service_ns)


def build_response_terse(operation: str, value: Any) -> bytes:
    """Terse response: ``<E><R n="op"><v .../></R></E>``."""
    if operation.__class__ is str:
        try:
            return _response_memo(operation, _value_key(value), "", True)
        except _Unmemoisable:
            pass
    return _build_response_terse(operation, value)


_CONTAINERS = (list, dict)


@functools.lru_cache(maxsize=CODEC_MEMO_SIZE)
def _parse_memo(data: bytes) -> tuple[SoapMessage, bool]:
    """The message ``data`` holds, and whether its args or value hold a
    container."""
    message = _parse_envelope(data)
    nested = message.value.__class__ in _CONTAINERS
    if not nested:
        for arg in message.args:
            if arg.__class__ in _CONTAINERS:
                nested = True
                break
    return message, nested


def _copy(value: Any) -> Any:
    """``value`` with fresh lists and dicts (a parsed value holds no other
    container)."""
    cls = value.__class__
    if cls is list:
        return [_copy(item) for item in value]
    if cls is dict:
        return {name: _copy(member) for name, member in value.items()}
    return value


def parse_envelope(data: bytes) -> SoapMessage:
    """Parse any envelope shape produced above, verbose or terse (see
    :func:`_parse_envelope`); a verbose envelope in ``bytes`` goes through
    the memo."""
    if data.__class__ is not bytes or not data.startswith(b"<?xml"):
        return _parse_envelope(data)
    remembered, nested = _parse_memo(data)
    message = SoapMessage.__new__(SoapMessage)
    message.__dict__.update(remembered.__dict__)
    if nested:
        message.args = _copy(remembered.args)
        message.value = _copy(remembered.value)
    else:
        message.args = remembered.args.copy()
    return message


def clear_memos() -> None:
    """Forget everything the codec's memos hold."""
    _parse_memo.cache_clear()
    _request_memo.cache_clear()
    _response_memo.cache_clear()
