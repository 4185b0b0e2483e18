"""Topology container: segments, nodes, address assignment and resolution."""

from __future__ import annotations

from typing import Type

from repro.errors import AddressError, NetworkError
from repro.net.addressing import HwAddress, NodeAddress
from repro.net.node import Interface, Node
from repro.net.segment import Segment
from repro.net.simkernel import Simulator


class Network:
    """Owns every segment and node of one simulated home.

    Address assignment: each interface gets the next host number on its
    segment, so ``NodeAddress("jini-eth", 2)`` is the second interface
    attached to the ``jini-eth`` segment.  Hardware addresses are globally
    unique (a flat counter), mirroring burned-in MAC addresses.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.segments: dict[str, Segment] = {}
        self.nodes: dict[str, Node] = {}
        self._hw_counter = 0
        self._host_counters: dict[str, int] = {}
        self._by_address: dict[NodeAddress, Interface] = {}
        #: Hardware address value -> interface (an int key hashes in C).
        self._by_hw: dict[int, Interface] = {}

    # -- construction --------------------------------------------------------

    def add_segment(self, segment: Segment) -> Segment:
        if segment.name in self.segments:
            raise NetworkError(f"segment {segment.name!r} already exists")
        self.segments[segment.name] = segment
        self._host_counters[segment.name] = 0
        return segment

    def create_segment(self, cls: Type[Segment], name: str, **kwargs) -> Segment:
        return self.add_segment(cls(self.sim, name, **kwargs))

    def create_node(self, name: str) -> Node:
        if name in self.nodes:
            raise NetworkError(f"node {name!r} already exists")
        node = Node(self.sim, name)
        self.nodes[name] = node
        return node

    def attach(self, node: Node, segment: Segment | str) -> Interface:
        """Attach ``node`` to ``segment``, assigning fresh addresses."""
        if isinstance(segment, str):
            segment = self.segment(segment)
        self._hw_counter += 1
        self._host_counters[segment.name] += 1
        address = NodeAddress(segment.name, self._host_counters[segment.name])
        interface = Interface(node, segment, HwAddress(self._hw_counter), address)
        segment.attach(interface)
        node.add_interface(interface)
        self._by_address[address] = interface
        self._by_hw[interface.hw_address.value] = interface
        return interface

    # -- lookup ---------------------------------------------------------------

    def segment(self, name: str) -> Segment:
        try:
            return self.segments[name]
        except KeyError:
            raise NetworkError(f"no segment named {name!r}") from None

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"no node named {name!r}") from None

    def resolve(self, address: NodeAddress) -> Interface:
        """Network-layer address resolution (the ARP table of the home)."""
        try:
            return self._by_address[address]
        except KeyError:
            raise AddressError(f"unreachable address {address}") from None

    def resolve_hw(self, hw_address: HwAddress) -> Interface:
        """Reverse lookup: which interface owns a hardware address."""
        try:
            return self._by_hw[hw_address.value]
        except KeyError:
            raise AddressError(f"unknown hardware address {hw_address}") from None
