"""IEEE1394 bus management: self-identification, GUIDs, phy ids, and the
isochronous resource manager.

A :class:`Bus1394` wraps one :class:`repro.net.segment.IEEE1394Segment`.
Nodes join through :class:`HaviNode`, which attaches a network node to the
segment and registers it with the bus.  Every join or leave triggers a *bus
reset*: phy ids are reassigned (GUIDs are stable), and reset listeners —
the HAVi registry invalidates cached queries on reset, for example — are
notified.

The isochronous resource manager (held by the highest-phy-id node, as on a
real bus) hands out the 64 isochronous channels and a bandwidth budget;
stream connections in :mod:`repro.havi.streams` draw on it.
"""

from __future__ import annotations

import weakref
from typing import Callable

from repro.errors import HaviError
from repro.net.addressing import HwAddress
from repro.net.network import Network
from repro.net.node import Interface, Node
from repro.net.segment import IEEE1394Segment

PROTO_1394_ASYNC = "1394-async"

ISO_CHANNELS = 64
#: Isochronous bandwidth budget in bytes/second (80% of a 400 Mb/s bus,
#: matching the 1394 arbitration split between iso and async traffic).
ISO_BANDWIDTH_BUDGET = int(400e6 * 0.8 / 8)

#: GUIDs are EUI-64s burned into hardware: unique across every bus of one
#: simulated network, and numbered per network so that a run never depends
#: on what else ran earlier in the same process.
_GUID_BASE = 0x0800_0000
_last_guid: "weakref.WeakKeyDictionary[Network, int]" = weakref.WeakKeyDictionary()


class Bus1394:
    """Bus-level state shared by all HAVi nodes on one 1394 segment."""

    def __init__(self, network: Network, segment: IEEE1394Segment) -> None:
        if not isinstance(segment, IEEE1394Segment):
            raise HaviError("Bus1394 requires an IEEE1394Segment")
        self.network = network
        self.segment = segment
        self.sim = network.sim
        self._members: list["HaviNode"] = []
        self._phy_ids: dict[int, "HaviNode"] = {}
        self._guid_to_phy: dict[int, int] = {}
        self._reset_listeners: list[Callable[[], None]] = []
        self.reset_count = 0
        # Isochronous resource manager state: channel -> (owner guid, B/s).
        self._channels_in_use: dict[int, tuple[int, int]] = {}
        self._bandwidth_used = 0

    # -- membership ------------------------------------------------------------

    def join(self, havi_node: "HaviNode") -> int:
        """Add a node to the bus; triggers a bus reset.  Returns the GUID."""
        guid = _last_guid.get(self.network, _GUID_BASE) + 1
        _last_guid[self.network] = guid
        havi_node.guid = guid
        self._members.append(havi_node)
        self.bus_reset()
        return guid

    def leave(self, havi_node: "HaviNode") -> None:
        if havi_node not in self._members:
            raise HaviError(f"{havi_node.name} is not on bus {self.segment.name}")
        self._members.remove(havi_node)
        # Resources owned by the departed node are reclaimed on reset.
        reclaimed = {
            channel: entry
            for channel, entry in self._channels_in_use.items()
            if entry[0] == havi_node.guid
        }
        for channel, (_owner, bandwidth_bytes) in reclaimed.items():
            del self._channels_in_use[channel]
            self._bandwidth_used = max(0, self._bandwidth_used - bandwidth_bytes)
        self.bus_reset()

    def bus_reset(self) -> None:
        """Reassign phy ids (join order; root = highest) and notify."""
        self.reset_count += 1
        self._phy_ids.clear()
        self._guid_to_phy.clear()
        for phy_id, member in enumerate(self._members):
            member.phy_id = phy_id
            self._phy_ids[phy_id] = member
            self._guid_to_phy[member.guid] = phy_id
        for listener in list(self._reset_listeners):
            listener()

    def on_bus_reset(self, listener: Callable[[], None]) -> None:
        self._reset_listeners.append(listener)

    @property
    def members(self) -> list["HaviNode"]:
        return list(self._members)

    @property
    def root(self) -> "HaviNode":
        if not self._members:
            raise HaviError("empty bus has no root node")
        return self._members[-1]

    def node_by_guid(self, guid: int) -> "HaviNode":
        phy_id = self._guid_to_phy.get(guid)
        if phy_id is None:
            raise HaviError(f"no node with GUID 0x{guid:x} on the bus")
        return self._phy_ids[phy_id]

    # -- async packet service ------------------------------------------------------

    def send_async(self, sender: "HaviNode", dst_guid: int, payload: bytes) -> None:
        """Send an asynchronous packet to the node owning ``dst_guid``."""
        dst = self.node_by_guid(dst_guid)
        sender.interface.send(dst.interface.hw_address, PROTO_1394_ASYNC, payload)

    def broadcast_async(self, sender: "HaviNode", payload: bytes) -> None:
        sender.interface.broadcast(PROTO_1394_ASYNC, payload)

    # -- isochronous resource manager ----------------------------------------------

    def allocate_channel(self, owner_guid: int, bandwidth_bps: int) -> int:
        """Allocate an iso channel plus bandwidth; raises when exhausted."""
        bandwidth_bytes = bandwidth_bps // 8
        if self._bandwidth_used + bandwidth_bytes > ISO_BANDWIDTH_BUDGET:
            raise HaviError(
                f"isochronous bandwidth exhausted "
                f"({self._bandwidth_used + bandwidth_bytes} > {ISO_BANDWIDTH_BUDGET} B/s)"
            )
        for channel in range(ISO_CHANNELS):
            if channel not in self._channels_in_use:
                self._channels_in_use[channel] = (owner_guid, bandwidth_bytes)
                self._bandwidth_used += bandwidth_bytes
                return channel
        raise HaviError("all 64 isochronous channels are in use")

    def release_channel(self, channel: int, bandwidth_bps: int) -> None:
        if channel not in self._channels_in_use:
            raise HaviError(f"channel {channel} is not allocated")
        del self._channels_in_use[channel]
        self._bandwidth_used = max(0, self._bandwidth_used - bandwidth_bps // 8)

    @property
    def channels_allocated(self) -> int:
        return len(self._channels_in_use)

    @property
    def iso_bandwidth_free(self) -> int:
        return ISO_BANDWIDTH_BUDGET - self._bandwidth_used


class HaviNode:
    """One HAVi device's attachment to the bus.

    Creates the network node, attaches it to the 1394 segment, joins the
    bus, and instantiates the node's Messaging System.
    """

    def __init__(self, network: Network, name: str, bus: Bus1394) -> None:
        from repro.havi.messaging import MessagingSystem  # cycle at import time

        self.network = network
        self.bus = bus
        self.node: Node = network.create_node(name)
        self.interface: Interface = network.attach(self.node, bus.segment)
        self.guid = 0
        self.phy_id = -1
        bus.join(self)
        self.messaging = MessagingSystem(self)
        self.sim = network.sim

    @classmethod
    def adopt(cls, network: Network, node: Node, bus: Bus1394) -> "HaviNode":
        """Join an *existing* node (e.g. a gateway already attached to the
        1394 segment) to the bus as a HAVi node."""
        from repro.havi.messaging import MessagingSystem

        havi_node = cls.__new__(cls)
        havi_node.network = network
        havi_node.bus = bus
        havi_node.node = node
        havi_node.interface = node.interface_on(bus.segment)
        havi_node.guid = 0
        havi_node.phy_id = -1
        bus.join(havi_node)
        havi_node.messaging = MessagingSystem(havi_node)
        havi_node.sim = network.sim
        return havi_node

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def hw_address(self) -> HwAddress:
        return self.interface.hw_address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HaviNode {self.name} guid=0x{self.guid:x} phy={self.phy_id}>"
