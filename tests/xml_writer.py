"""A general-purpose XML writer, the reference the template writers in
``src/repro`` are checked against byte for byte."""

from __future__ import annotations

from typing import Mapping

from repro.errors import SoapError
from repro.soap.xmlutil import XML_DECLARATION, escape_attr, escape_text


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
