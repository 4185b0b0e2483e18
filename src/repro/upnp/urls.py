"""`http://<node-address>:<port>/<path>` URL helpers for UPnP."""

from __future__ import annotations

import re

from repro.errors import UpnpError
from repro.net.addressing import NodeAddress


def make_url(address: NodeAddress, port: int, path: str) -> str:
    """Render ``http://segment/host:port/path``."""
    if not path.startswith("/"):
        path = "/" + path
    return f"http://{address}:{port}{path}"


_URL_RE = re.compile(r"^http://(?P<segment>[^/:]+)/(?P<host>[0-9]+):(?P<port>[0-9]+)(?P<path>/.*)?$")


def parse_url(url: str) -> tuple[NodeAddress, int, str]:
    """→ (address, port, path).

    Node addresses contain a slash (``segment/host``), so the authority is
    matched structurally rather than split at the first ``/``.
    """
    match = _URL_RE.match(url)
    if match is None:
        raise UpnpError(f"malformed URL {url!r}")
    address = NodeAddress(match.group("segment"), int(match.group("host")))
    return address, int(match.group("port")), match.group("path") or "/"
