"""SIP message grammar (RFC 2543-flavoured subset).

Requests carry a method (MESSAGE, SUBSCRIBE, NOTIFY), a request-URI like
``sip:jini@backbone/2:5060``, headers, and a body.  Responses carry a
status code and reason.  Both serialise to the textual wire format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SipError
from repro.net.addressing import NodeAddress

_CRLF = "\r\n"
SIP_VERSION = "SIP/2.0"

METHODS = ("MESSAGE", "SUBSCRIBE", "NOTIFY", "OPTIONS")

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    500: "Server Internal Error",
    501: "Not Implemented",
}


def _is_ascii_digits(text: str) -> bool:
    """``str.isdigit`` accepts superscripts and other scripts' digits,
    which ``int`` then rejects or reads as a different number."""
    return text.isascii() and text.isdigit()


def make_uri(user: str, address: NodeAddress, port: int) -> str:
    """Render ``sip:user@segment/host:port``."""
    return f"sip:{user}@{address}:{port}"


def parse_uri(uri: str) -> tuple[str, NodeAddress, int]:
    """Inverse of :func:`make_uri` → (user, address, port)."""
    if not uri.startswith("sip:"):
        raise SipError(f"not a SIP URI: {uri!r}")
    rest = uri[len("sip:") :]
    user, sep, hostport = rest.partition("@")
    if not sep:
        raise SipError(f"SIP URI lacks a user part: {uri!r}")
    host, sep, port_text = hostport.rpartition(":")
    if not sep or not _is_ascii_digits(port_text):
        raise SipError(f"SIP URI lacks a port: {uri!r}")
    try:
        address = NodeAddress.parse(host)
    except ValueError as exc:
        raise SipError(str(exc)) from exc
    return user, address, int(port_text)


@dataclass
class SipMessage:
    """Fields shared by requests and responses."""

    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default

    def _render(self, start_line: str) -> bytes:
        lines = [start_line]
        lines += [f"{key}: {value}" for key, value in self.headers.items()]
        if not any(key.lower() == "content-length" for key in self.headers):
            lines.append(f"Content-Length: {len(self.body)}")
        head = _CRLF.join(lines) + _CRLF + _CRLF
        return head.encode("utf-8") + self.body


@dataclass
class SipRequest(SipMessage):
    """A SIP request (method + request-URI)."""

    method: str = "MESSAGE"
    uri: str = ""

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise SipError(f"unsupported SIP method {self.method!r}")

    def to_bytes(self) -> bytes:
        return self._render(f"{self.method} {self.uri} {SIP_VERSION}")


@dataclass
class SipResponse(SipMessage):
    """A SIP response (status + reason)."""

    status: int = 200
    reason: str = ""

    def __post_init__(self) -> None:
        if not self.reason:
            self.reason = REASONS.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def to_bytes(self) -> bytes:
        return self._render(f"{SIP_VERSION} {self.status} {self.reason}")


def parse_message(data: bytes) -> SipRequest | SipResponse:
    """Parse one datagram into a request or response."""
    try:
        head, _, body = data.partition(b"\r\n\r\n")
        text = head.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SipError(f"undecodable SIP message: {exc}") from exc
    lines = text.split(_CRLF)
    if not lines or not lines[0]:
        raise SipError("empty SIP message")
    start = lines[0]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise SipError(f"malformed SIP header {line!r}")
        headers[name.strip()] = value.strip()
    length_text = next(
        (value for name, value in headers.items() if name.lower() == "content-length"),
        str(len(body)),
    )
    if not _is_ascii_digits(length_text):
        raise SipError("bad Content-Length")
    body = body[: int(length_text)]

    if start.startswith(SIP_VERSION + " "):
        parts = start.split(" ", 2)
        if len(parts) < 3 or not _is_ascii_digits(parts[1]):
            raise SipError(f"malformed status line {start!r}")
        return SipResponse(
            status=int(parts[1]), reason=parts[2], headers=headers, body=body
        )
    parts = start.split(" ")
    if len(parts) != 3 or parts[2] != SIP_VERSION:
        raise SipError(f"malformed request line {start!r}")
    return SipRequest(method=parts[0], uri=parts[1], headers=headers, body=body)
