"""Hardware and network-layer addresses for the simulated home network.

Two address spaces exist, mirroring real stacks:

- :class:`HwAddress` — link-layer address, unique per interface *within a
  segment* (like a MAC address, a 1394 phy id, or an X10 house/unit pair's
  carrier).  Frames carry these.
- :class:`NodeAddress` — network-layer address of an interface, unique
  across the whole :class:`repro.net.network.Network` (like an IP address).
  Transport sockets address peers with these.

The home topology in the paper has no router: every middleware island is one
segment, and gateways are *multi-homed application-layer* bridges.  So the
network layer only ever resolves a :class:`NodeAddress` to (segment,
hardware address) — there is no forwarding plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

# Addresses are dict keys on the frame path (the transport's connection
# table, the network's address table), so hashing one must not run
# Python code: a hardware address computes its hash once, at
# construction, and a node address is a tuple, which hashes in C.


@dataclass(frozen=True, order=True)
class HwAddress:
    """Link-layer interface address, rendered MAC-style."""

    value: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.value))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.value == _BROADCAST_VALUE:
            return "ff:ff"
        return f"{self.value >> 8 & 0xFF:02x}:{self.value & 0xFF:02x}"


_BROADCAST_VALUE = 0xFFFF

#: Destination address that delivers a frame to every other interface on the
#: segment.
BROADCAST = HwAddress(_BROADCAST_VALUE)


class NodeAddress(NamedTuple):
    """Network-layer address of one interface: ``<segment>/<host#>``.

    A named ``(segment, host)`` tuple, so it hashes, compares and orders
    in C, and equals the plain tuple of its fields.  No codec is handed
    one: an address travels as its ``str``."""

    segment: str
    host: int

    def __str__(self) -> str:
        return f"{self.segment}/{self.host}"

    @staticmethod
    def parse(text: str) -> "NodeAddress":
        """Inverse of ``str()``; raises ValueError on malformed input."""
        segment, _, host = text.rpartition("/")
        # ASCII digits only: ``int`` also reads other scripts' digits, and
        # the address would not render back to ``text``.
        if not segment or not (host.isascii() and host.isdigit()):
            raise ValueError(f"malformed node address {text!r}")
        return NodeAddress(segment, int(host))
