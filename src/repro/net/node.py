"""Nodes and their interfaces."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import NetworkError
from repro.net.addressing import BROADCAST, HwAddress, NodeAddress
from repro.net.frames import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.segment import Segment
    from repro.net.simkernel import Simulator

_BROADCAST_VALUE = BROADCAST.value

#: Signature of an upper-layer frame handler: (receiving interface, frame).
FrameHandler = Callable[["Interface", Frame], None]


class Interface:
    """One attachment point of a node to a segment."""

    def __init__(
        self,
        node: "Node",
        segment: "Segment",
        hw_address: HwAddress,
        node_address: NodeAddress,
    ) -> None:
        self.node = node
        self.segment = segment
        self.hw_address = hw_address
        self.node_address = node_address
        self._promiscuous = False
        self.up = True

    @property
    def promiscuous(self) -> bool:
        """When True the interface hands all frames up, not just ones
        addressed to it (used by sniffers/monitors in tests)."""
        return self._promiscuous

    @promiscuous.setter
    def promiscuous(self, value: bool) -> None:
        self._promiscuous = value
        self.segment._note_promiscuous()

    def send(
        self,
        dst: HwAddress,
        protocol: str,
        payload: bytes,
        note: str = "",
        parts: tuple[tuple[str, int], ...] | None = None,
    ) -> float:
        """Transmit a frame on this interface's segment.  Returns the virtual
        time the transmission completes.  ``parts`` carries constituent
        metadata for vectored transmissions (see :class:`~repro.net.frames.
        Frame`)."""
        if not self.up:
            raise NetworkError(f"interface {self} is down")
        frame = Frame(self.hw_address, dst, protocol, payload, note, parts)
        return self.segment.transmit(self, frame)

    def broadcast(self, protocol: str, payload: bytes, note: str = "") -> float:
        return self.send(BROADCAST, protocol, payload, note)

    def deliver(self, frame: Frame) -> None:
        """Called by the segment when a frame arrives: a frame this
        interface takes goes straight to its node's handler for the
        frame's protocol (what :meth:`Node.on_frame` does)."""
        if not self.up:
            return
        dst = frame.dst.value
        if dst == self.hw_address.value or dst == _BROADCAST_VALUE or self._promiscuous:
            handler = self.node._handlers.get(frame.protocol)
            if handler is not None:
                handler(self, frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.node_address} hw={self.hw_address}>"


class Node:
    """A device on the network: zero or more interfaces plus a protocol
    dispatch table.

    Upper layers (transport stacks, middleware protocol engines) register a
    handler per protocol tag.  Gateways are simply nodes attached to more
    than one segment.
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: list[Interface] = []
        #: First interface on each segment, for :meth:`interface_on`.
        self._on_segment: dict["Segment", Interface] = {}
        self._handlers: dict[str, FrameHandler] = {}

    # -- wiring ------------------------------------------------------------

    def add_interface(self, interface: Interface) -> None:
        self.interfaces.append(interface)
        self._on_segment.setdefault(interface.segment, interface)

    def interface_on(self, segment: "Segment") -> Interface:
        """The node's interface attached to ``segment``."""
        try:
            return self._on_segment[segment]
        except KeyError:
            raise NetworkError(f"node {self.name} has no interface on {segment.name}") from None

    # -- failure injection ---------------------------------------------------

    @property
    def alive(self) -> bool:
        """True unless every interface is administratively down."""
        return any(interface.up for interface in self.interfaces) or not self.interfaces

    def crash(self) -> None:
        """Take every interface down: frames in flight towards the node are
        lost on arrival and sends raise, exactly like pulled power."""
        for interface in self.interfaces:
            interface.up = False

    def restart(self) -> None:
        """Bring every interface back up.  Protocol state registered on the
        node (listeners, handlers) survives, as for a fast process restart."""
        for interface in self.interfaces:
            interface.up = True

    def register_protocol(self, protocol: str, handler: FrameHandler) -> None:
        """Install the upper-layer handler for frames tagged ``protocol``.
        Registering twice for the same tag is an error (it would silently
        drop a protocol engine)."""
        if protocol in self._handlers:
            raise NetworkError(
                f"node {self.name}: handler for protocol {protocol!r} already registered"
            )
        self._handlers[protocol] = handler

    def unregister_protocol(self, protocol: str) -> None:
        self._handlers.pop(protocol, None)

    # -- datapath ------------------------------------------------------------

    def on_frame(self, interface: Interface, frame: Frame) -> None:
        handler = self._handlers.get(frame.protocol)
        if handler is not None:
            handler(interface, frame)
        # Frames with no registered handler are dropped silently, like a
        # host ignoring an unknown EtherType.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} ifaces={len(self.interfaces)}>"
