"""Small XML toolkit: a deterministic writer and parsing helpers.

The writer produces the prefixed, namespace-declared markup a 2002-era SOAP
stack would emit, so envelope byte counts in the payload benchmarks are
realistic.  Parsing uses the stdlib ``xml.etree.ElementTree`` with explicit
``{uri}local`` qualified names.  The shapes the stack renders itself (WSDL
documents, verbose and terse envelopes) are read without it, by patterns
built from :data:`ATTR_VALUE` and :data:`XML_NAME` plus
:func:`plain_bytes`, with ElementTree as the fallback for anything else.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Mapping

from repro.errors import SoapError

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"
SOAP_ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

#: prefix -> namespace URI used by the writer (and expected by tests).
STANDARD_PREFIXES = {
    "SOAP-ENV": SOAP_ENV_NS,
    "SOAP-ENC": SOAP_ENC_NS,
    "xsi": XSI_NS,
    "xsd": XSD_NS,
    "wsdl": WSDL_NS,
}


def escape_text(text: str) -> str:
    """Escape character data."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def escape_attr(text: str) -> str:
    """Escape an attribute value (double-quoted)."""
    return escape_text(text).replace('"', "&quot;").replace("\n", "&#10;")


# Characters a parser rejects (XML 1.0 ``Char``) or rewrites (``\r``, and
# ``\t``/``\n`` in attribute values, which attribute-value normalisation
# turns into spaces).  A template reader defers to ElementTree on any of
# them, so what it reads is always what the parser would.
_NOT_CHAR = r"\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_ATTR_CHARS = rf'[^"<&\t\n\r{_NOT_CHAR}]*'
#: Regex for a double-quoted attribute value as :func:`escape_attr`
#: renders it (a literal ``>`` is accepted, as the parser accepts it).
ATTR_VALUE = f"{_ATTR_CHARS}(?:&(?:amp|lt|gt|quot|#10);{_ATTR_CHARS})*"
#: Regex for the names :func:`is_xml_name` accepts.
XML_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"

# Every byte but the C0 controls other than tab and newline: deleting these
# with ``bytes.translate`` leaves only the bytes :func:`plain_bytes` refuses.
_PLAIN_BYTES = bytes(
    byte for byte in range(256) if byte >= 0x20 or byte in (0x09, 0x0A)
)


def plain_bytes(data: bytes) -> bool:
    """True when UTF-8 ``data`` holds no character that a parser rejects
    or rewrites in character data: no C0 control but tab and newline (so
    no ``\r``), and neither U+FFFE nor U+FFFF."""
    return not data.translate(None, _PLAIN_BYTES) and (
        data.isascii()
        or (b"\xef\xbf\xbe" not in data and b"\xef\xbf\xbf" not in data)
    )


def unescape_attr(text: str) -> str:
    """Inverse of :func:`escape_attr` on an :data:`ATTR_VALUE` match."""
    if "&" not in text:
        return text
    return (
        text.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&#10;", "\n")
        .replace("&amp;", "&")
    )


_XML_NAME = re.compile(XML_NAME)


def is_xml_name(name: str) -> bool:
    """Conservative check for names we are willing to use as element names
    (struct member keys cross this check before marshalling).

    Deliberately ASCII-only: Python's ``str.isalpha`` accepts Unicode
    letters that XML 1.0 name rules reject, so we stay well inside the
    intersection.
    """
    return _XML_NAME.fullmatch(name) is not None


class XmlWriter:
    """Builds an XML document as text, tracking open elements.

    >>> writer = XmlWriter()
    >>> writer.open("root", {"a": "1"})
    >>> writer.leaf("child", text="hi")
    >>> writer.close()
    >>> writer.tostring()
    '<?xml version="1.0" encoding="UTF-8"?>\\n<root a="1"><child>hi</child></root>'
    """

    def __init__(self, declaration: bool = True) -> None:
        self._parts: list[str] = []
        if declaration:
            self._parts.append(XML_DECLARATION)
        self._stack: list[str] = []

    def open(self, tag: str, attrs: Mapping[str, str] | None = None) -> None:
        self._parts.append(f"<{tag}{self._render_attrs(attrs)}>")
        self._stack.append(tag)

    def close(self) -> None:
        if not self._stack:
            raise SoapError("XmlWriter.close with no open element")
        tag = self._stack.pop()
        self._parts.append(f"</{tag}>")

    def leaf(self, tag: str, attrs: Mapping[str, str] | None = None, text: str | None = None) -> None:
        """A complete element in one call: ``<tag attrs>text</tag>`` or
        ``<tag attrs/>`` when ``text`` is None."""
        rendered = self._render_attrs(attrs)
        if text is None:
            self._parts.append(f"<{tag}{rendered}/>")
        else:
            self._parts.append(f"<{tag}{rendered}>{escape_text(text)}</{tag}>")

    def tostring(self) -> str:
        if self._stack:
            raise SoapError(f"unclosed elements: {self._stack}")
        return "".join(self._parts)

    def tobytes(self) -> bytes:
        return self.tostring().encode("utf-8")

    @staticmethod
    def _render_attrs(attrs: Mapping[str, str] | None) -> str:
        if not attrs:
            return ""
        return "".join(f' {key}="{escape_attr(value)}"' for key, value in attrs.items())


def qname(ns: str, local: str) -> str:
    """ElementTree qualified name."""
    return f"{{{ns}}}{local}"


def parse_document(data: bytes | str) -> ET.Element:
    """Parse a document, converting parse errors into :class:`SoapError`."""
    try:
        if isinstance(data, bytes):
            return ET.fromstring(data)
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise SoapError(f"malformed XML: {exc}") from exc


def local_name(element: ET.Element) -> str:
    """Tag name with any ``{uri}`` prefix stripped."""
    tag = element.tag
    if tag.startswith("{"):
        return tag.rpartition("}")[2]
    return tag


def attr(element: ET.Element, ns: str, local: str) -> str | None:
    """Namespaced attribute lookup."""
    return element.get(qname(ns, local))


def find_child(element: ET.Element, ns: str, local: str) -> ET.Element | None:
    """First child named ``{ns}local``, or None."""
    return element.find(qname(ns, local))


def require_child(element: ET.Element, ns: str, local: str) -> ET.Element:
    """Like :func:`find_child` but raises :class:`SoapError` when absent."""
    child = find_child(element, ns, local)
    if child is None:
        raise SoapError(f"missing required element {local!r} in {local_name(element)!r}")
    return child
