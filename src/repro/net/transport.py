"""UDP-like datagrams and TCP-like reliable streams over the simulated net.

The paper's Section 4.2 criticises SOAP's transport: "current HTTP must run
over TCP, and a TCP stack is large and complex.  This can be an issue in
small devices".  To let the benchmarks quantify that, connections here have
real (simulated) costs: a three-way handshake before any data, per-frame
headers, MTU segmentation, and per-connection state that the monitor can
count.  Datagrams have none of that, which is why discovery protocols
(Jini multicast, SSDP, SIP) use them.

Both protocols are *reliable in order* on non-lossy segments because the
segments themselves deliver serially; no retransmission machinery is
simulated (middleware never runs TCP over the lossy powerline).

The stack owns one :class:`~repro.net.reactor.Reactor` per node.
Connections flagged ``vectored`` do not transmit from :meth:`Connection.
send`; they queue frames with the reactor, which coalesces each
connection's burst into one ``tcpv`` segment transmission per readiness
cycle (``writev`` semantics).  Inbound, a ``tcpv`` frame is unpacked into
zero-copy :class:`memoryview` slices; connections flagged ``zero_copy``
receive those views directly, others get ``bytes`` as before.  Legacy
connections (``vectored`` False, the default) keep the exact pre-reactor
immediate transmit path, byte for byte.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.errors import AddressError, ConnectionClosedError, NetworkError, TransportError
from repro.net.addressing import BROADCAST, NodeAddress
from repro.net.frames import Frame
from repro.net.network import Network
from repro.net.node import Interface, Node
from repro.net.reactor import Reactor
from repro.net.segment import Segment
from repro.net.simkernel import Event, SimFuture

PROTO_UDP = "udp"
PROTO_TCP = "tcp"
#: Vectored transport frame: several TCP-like frames coalesced into one
#: segment transmission by the reactor (u16 length prefix per sub-frame).
PROTO_TCPV = "tcpv"

_UDP_HEADER = struct.Struct("!HH")  # src_port, dst_port
_TCP_HEADER = struct.Struct("!BHHI")  # kind, src_port, dst_port, seq
_VECTOR_LEN = struct.Struct("!H")  # sub-frame length inside a tcpv frame

# TCP-like frame kinds.
_SYN = 1
_SYN_ACK = 2
_ACK = 3
_DATA = 4
_FIN = 5
_FIN_ACK = 6
_RST = 7

_EPHEMERAL_START = 49152

#: Local-delivery latency when both endpoints live on the same node.
_LOOPBACK_DELAY = 1e-6


class DatagramSocket:
    """Connectionless socket bound to one port of a node."""

    def __init__(self, stack: "TransportStack", port: int) -> None:
        self._stack = stack
        self.port = port
        self._handler: Callable[[NodeAddress, int, bytes], None] | None = None
        self._backlog: list[tuple[NodeAddress, int, bytes]] = []
        self.closed = False

    def on_datagram(self, handler: Callable[[NodeAddress, int, bytes], None]) -> None:
        """Install the receive handler ``(src_addr, src_port, data)``.
        Datagrams that arrived before the handler was set are replayed."""
        self._handler = handler
        backlog, self._backlog = self._backlog, []
        for item in backlog:
            handler(*item)

    def sendto(self, dst: NodeAddress, dst_port: int, data: bytes) -> None:
        if self.closed:
            raise ConnectionClosedError("sendto on closed datagram socket")
        payload = _UDP_HEADER.pack(self.port, dst_port) + data
        self._stack.send_network(dst, PROTO_UDP, payload)

    def broadcast(self, segment: Segment | str, dst_port: int, data: bytes) -> None:
        """Broadcast on one directly attached segment."""
        if self.closed:
            raise ConnectionClosedError("broadcast on closed datagram socket")
        payload = _UDP_HEADER.pack(self.port, dst_port) + data
        self._stack.send_broadcast(segment, PROTO_UDP, payload)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._stack._release_udp(self.port)

    def _deliver(self, src: NodeAddress, src_port: int, data: bytes) -> None:
        if self.closed:
            return
        if self._handler is None:
            self._backlog.append((src, src_port, data))
        else:
            self._handler(src, src_port, data)


class Listener:
    """A TCP-like listening port."""

    def __init__(
        self,
        stack: "TransportStack",
        port: int,
        on_connection: Callable[["Connection"], None],
    ) -> None:
        self._stack = stack
        self.port = port
        self.on_connection = on_connection
        self.closed = False

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._stack._release_listener(self.port)


class Connection:
    """One reliable byte-stream connection endpoint."""

    # Connection states.
    SYN_SENT = "SYN_SENT"
    SYN_RECEIVED = "SYN_RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    CLOSING = "CLOSING"
    CLOSED = "CLOSED"

    def __init__(
        self,
        stack: "TransportStack",
        local_port: int,
        remote: NodeAddress,
        remote_port: int,
    ) -> None:
        self._stack = stack
        self.local_port = local_port
        self.remote = remote
        self.remote_port = remote_port
        #: This endpoint's entry in the stack's connection table.
        self.key: tuple[NodeAddress, int, int] = (remote, remote_port, local_port)
        self.state = Connection.CLOSED
        self._receiver: Callable[["Connection", bytes], None] | None = None
        self._rx_backlog: list[bytes] = []
        self._on_close: Callable[["Connection"], None] | None = None
        self._next_seq = 0
        #: Route outbound frames through the reactor (coalescing into
        #: vectored transmissions) instead of transmitting immediately.
        #: Off by default: the legacy wire stays byte-identical.
        self.vectored = False
        #: Deliver inbound data as zero-copy ``memoryview`` slices instead
        #: of ``bytes``.  Only receivers that accept views may enable it.
        self.zero_copy = False
        #: Frames queued for the reactor's next readiness cycle.
        self._tx_pending: list[tuple[str, bytes]] = []
        #: ``remote`` as :meth:`TransportStack.route` resolved it: taken
        #: from the stack's table when already there, else resolved on
        #: first use (see :meth:`_resolve_route`).
        self._route: tuple[Interface, Interface | None] | None = stack._routes.get(remote)
        #: While an active open is pending: the future
        #: :meth:`TransportStack.connect` returned, and its timeout.
        self._connect_future: SimFuture | None = None
        self._connect_timer: Event | None = None
        # Accounting read by the stack-weight benchmark (experiment C4).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    # -- user API -------------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Send bytes, segmented to the path MTU."""
        if self.state != Connection.ESTABLISHED:
            raise ConnectionClosedError(
                f"send on connection in state {self.state} to {self.remote}"
            )
        route = self._route or self._resolve_route()
        chunk_size = max(1, route[0].segment.mtu - _TCP_HEADER.size)
        size = len(data)
        if size <= chunk_size:
            if size:
                self._send_frame(_DATA, data)
        else:
            for offset in range(0, size, chunk_size):
                self._send_frame(_DATA, data[offset : offset + chunk_size])
        self.bytes_sent += size

    def set_receiver(self, handler: Callable[["Connection", bytes], None]) -> None:
        """Install the data handler; buffered data is replayed in order."""
        self._receiver = handler
        backlog, self._rx_backlog = self._rx_backlog, []
        for chunk in backlog:
            handler(self, chunk)

    def on_close(self, handler: Callable[["Connection"], None]) -> None:
        self._on_close = handler

    def close(self) -> None:
        """Initiate an orderly shutdown (FIN / FIN-ACK)."""
        if self.state != Connection.ESTABLISHED:
            return
        self.state = Connection.CLOSING
        self._send_frame(_FIN, b"")

    def abort(self) -> None:
        """Tear down immediately: best-effort RST, then local close.

        Unlike :meth:`close`, works from any state and never waits for the
        peer — the caller may believe the path is dead (partition, crash),
        so the RST is fire-and-forget and local state is reclaimed now.
        """
        if self.state == Connection.CLOSED:
            return
        # Frames queued for the reactor die with the connection, and the
        # RST itself bypasses it: an abort must not wait for (or feed) a
        # readiness cycle on a path the caller believes is dead.  The
        # reactor's flush loop tolerates the emptied queue (_take_tx
        # returning nothing is a skip, not an error).
        self._tx_pending.clear()
        self.vectored = False
        try:
            self._send_frame(_RST, b"")
        except Exception:
            pass  # interface may be down; local cleanup still proceeds
        self._enter_closed()

    # -- internals ------------------------------------------------------------

    def _settle_connect(self, exc: BaseException | None) -> None:
        """Settle the pending active open: with this connection, or with
        ``exc``.  Its timeout is cancelled first."""
        future, timer = self._connect_future, self._connect_timer
        self._connect_future = self._connect_timer = None
        if timer is not None:
            timer.cancel()
        if future is None:
            return
        if exc is None:
            future.set_result(self)
        else:
            future.set_exception(exc)

    def _connect_timed_out(self) -> None:
        """The peer stayed silent for the whole connect timeout."""
        self._connect_timer = None
        stack = self._stack
        if stack._pending_connects.pop(self.key, None) is not None:
            stack._forget_connection(self)
            self.state = Connection.CLOSED
            self._settle_connect(
                TransportError(f"connect to {self.remote}:{self.remote_port} timed out")
            )

    def _resolve_route(self) -> tuple[Interface, Interface | None]:
        """Resolve and cache the route to ``remote``.  Callers read the
        cache first (``self._route or self._resolve_route()``); the
        handshake frame resolves it, so an established connection never
        calls this."""
        route = self._route = self._stack.route(self.remote)
        return route

    def _send_frame(self, kind: int, body: bytes) -> None:
        header = _TCP_HEADER.pack(kind, self.local_port, self.remote_port, self._next_seq)
        self._next_seq += 1
        self.frames_sent += 1
        payload = header + body
        if self.vectored:
            # Register write interest *before* queueing: the reactor uses
            # an empty _tx_pending as "not yet in this cycle's writable set".
            self._stack.reactor.register_writable(self)
            self._tx_pending.append((PROTO_TCP, payload))
        else:
            # Interface.send inlined: the frame goes straight onto the wire.
            route = self._route or self._resolve_route()
            dst_iface, local_iface = route
            if local_iface is None:
                self._stack.send_routed(route, PROTO_TCP, payload)
            elif not local_iface.up:
                raise NetworkError(f"interface {local_iface} is down")
            else:
                local_iface.segment.transmit(
                    local_iface,
                    Frame(local_iface.hw_address, dst_iface.hw_address, PROTO_TCP, payload),
                )

    def _take_tx(self) -> list[tuple[str, bytes]]:
        """Hand the reactor everything queued for this readiness cycle."""
        frames, self._tx_pending = self._tx_pending, []
        return frames

    def _deliver_data(self, body: bytes | memoryview) -> None:
        self.bytes_received += len(body)
        self.frames_received += 1
        if self._receiver is None:
            self._rx_backlog.append(body)
        else:
            self._receiver(self, body)

    def _enter_closed(self) -> None:
        if self.state == Connection.CLOSED:
            return
        self.state = Connection.CLOSED
        self._stack._forget_connection(self)
        # A closed connection delivers nothing more, so it lets go of its
        # handlers: closures that hold the connection are then freed by
        # reference counting rather than left to the cycle collector.
        on_close, self._on_close, self._receiver = self._on_close, None, None
        if on_close is not None:
            on_close(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Connection :{self.local_port} <-> {self.remote}:{self.remote_port} "
            f"{self.state}>"
        )


class TransportStack:
    """Per-node transport layer.  One per node that speaks UDP/TCP."""

    def __init__(self, node: Node, network: Network) -> None:
        self.node = node
        self.network = network
        self.sim = node.sim
        node.register_protocol(PROTO_UDP, self._on_udp_frame)
        node.register_protocol(PROTO_TCP, self._on_tcp_frame)
        node.register_protocol(PROTO_TCPV, self._on_tcpv_frame)
        self._udp_sockets: dict[int, DatagramSocket] = {}
        self._listeners: dict[int, Listener] = {}
        self._connections: dict[tuple[NodeAddress, int, int], Connection] = {}
        #: Connections whose active open awaits the peer's SYN-ACK.
        self._pending_connects: dict[tuple[NodeAddress, int, int], Connection] = {}
        #: The network's hardware address value -> interface table.
        self._by_hw = network._by_hw
        #: Destination -> its route, as :meth:`route` first resolved it.
        self._routes: dict[NodeAddress, tuple[Interface, Interface | None]] = {}
        self._ephemeral = _EPHEMERAL_START
        #: Per-node readiness engine: vectored writes + parked continuations.
        self.reactor = Reactor(self)

    # -- socket creation --------------------------------------------------------

    def udp_socket(self, port: int | None = None) -> DatagramSocket:
        port = self._claim_port(port, self._udp_sockets, "UDP")
        sock = DatagramSocket(self, port)
        self._udp_sockets[port] = sock
        return sock

    def listen(self, port: int, on_connection: Callable[[Connection], None]) -> Listener:
        port = self._claim_port(port, self._listeners, "TCP listener")
        listener = Listener(self, port, on_connection)
        self._listeners[port] = listener
        return listener

    #: Virtual seconds before an unanswered SYN gives up (like a SYN
    #: timeout; our lossless segments need no retransmission, so silence
    #: means the peer is partitioned or down).
    CONNECT_TIMEOUT = 30.0

    def connect(
        self,
        dst: NodeAddress,
        dst_port: int,
        local_port: int | None = None,
        timeout: float | None = None,
    ) -> SimFuture:
        """Open a connection; resolves to an ESTABLISHED :class:`Connection`
        or fails with :class:`TransportError` if the port is refused or the
        peer stays silent for ``timeout`` (default CONNECT_TIMEOUT)."""
        in_use = () if local_port is None else {key[2] for key in self._connections}
        local_port = self._claim_port(local_port, in_use, "TCP")
        # The network's own address object, which the peer's frames carry
        # back: their table lookups then match it by identity.
        route = self._routes.get(dst)
        if route is not None:
            dst = route[0].node_address
        else:
            try:
                dst = self.network.resolve(dst).node_address
            except AddressError:
                pass  # the SYN below fails the connect
        conn = Connection(self, local_port, dst, dst_port)
        conn.state = Connection.SYN_SENT
        self._connections[conn.key] = conn
        future = conn._connect_future = SimFuture()
        self._pending_connects[conn.key] = conn
        # The timeout is armed before the SYN leaves, as the event order
        # of every recorded run expects.
        delay = timeout if timeout is not None else self.CONNECT_TIMEOUT
        if delay:
            conn._connect_timer = self.sim.deadline(delay, conn._connect_timed_out)
        try:
            conn._send_frame(_SYN, b"")
        except NetworkError as exc:
            self._forget_connection(conn)
            self._pending_connects.pop(conn.key, None)
            conn._settle_connect(TransportError(f"connect failed: {exc}"))
        return future

    # -- address / routing helpers ------------------------------------------------

    def local_address(self, segment: Segment | str | None = None) -> NodeAddress:
        """An address of this node; on a multi-homed node pass the segment."""
        if segment is None:
            if not self.node.interfaces:
                raise NetworkError(f"node {self.node.name} has no interfaces")
            return self.node.interfaces[0].node_address
        if isinstance(segment, str):
            segment = self.network.segment(segment)
        return self.node.interface_on(segment).node_address

    def route(self, dst: NodeAddress) -> tuple[Interface, Interface | None]:
        """Resolve ``dst`` to its interface and this node's interface on the
        same segment, the latter None when ``dst`` is this node (loopback).
        A route never changes once resolved: addresses are never reassigned
        and a node's first interface on a segment stays its first.  So each
        destination is resolved once per stack and remembered."""
        route = self._routes.get(dst)
        if route is None:
            dst_iface = self.network.resolve(dst)
            if dst_iface.node is self.node:
                route = dst_iface, None
            else:
                route = dst_iface, self.node.interface_on(dst_iface.segment)
            self._routes[dst] = route
        return route

    def send_network(self, dst: NodeAddress, protocol: str, payload: bytes) -> None:
        """Network-layer send: resolve destination, pick the local interface
        on the same segment (or loop back if the destination is ourselves)."""
        self.send_routed(self.route(dst), protocol, payload)

    def send_routed(
        self, route: tuple[Interface, Interface | None], protocol: str, payload: bytes
    ) -> None:
        """:meth:`send_network` along a route :meth:`route` resolved."""
        dst_iface, local_iface = route
        if local_iface is None:
            # Loopback: never touches a segment.
            frame = Frame(
                src=dst_iface.hw_address,
                dst=dst_iface.hw_address,
                protocol=protocol,
                payload=payload,
                note="loopback",
            )
            self.sim.schedule(_LOOPBACK_DELAY, self.node.on_frame, dst_iface, frame)
            return
        local_iface.send(dst_iface.hw_address, protocol, payload)

    def send_vectored(
        self, route: tuple[Interface, Interface | None], frames: list[tuple[str, bytes]]
    ) -> None:
        """One segment transmission along ``route`` carrying several
        transport frames (``writev`` semantics).  Each ``(protocol,
        payload)`` sub-frame is u16-length-prefixed into a single ``tcpv``
        frame; ``Frame.parts`` carries constituent metadata so monitors
        account them exactly as if they had been transmitted one by one."""
        buf = bytearray()
        parts: list[tuple[str, int]] = []
        for protocol, payload in frames:
            buf += _VECTOR_LEN.pack(len(payload))
            buf += payload
            parts.append((protocol, len(payload)))
        vector_payload = bytes(buf)
        parts_meta = tuple(parts)
        dst_iface, local_iface = route
        if local_iface is None:
            frame = Frame(
                src=dst_iface.hw_address,
                dst=dst_iface.hw_address,
                protocol=PROTO_TCPV,
                payload=vector_payload,
                note="loopback",
                parts=parts_meta,
            )
            self.sim.schedule(_LOOPBACK_DELAY, self.node.on_frame, dst_iface, frame)
            return
        local_iface.send(dst_iface.hw_address, PROTO_TCPV, vector_payload, parts=parts_meta)

    def send_broadcast(self, segment: Segment | str, protocol: str, payload: bytes) -> None:
        if isinstance(segment, str):
            segment = self.network.segment(segment)
        local_iface = self.node.interface_on(segment)
        local_iface.send(BROADCAST, protocol, payload)

    # -- frame handlers ------------------------------------------------------------

    def _on_udp_frame(self, interface: Interface, frame: Frame) -> None:
        if len(frame.payload) < _UDP_HEADER.size:
            return
        src_port, dst_port = _UDP_HEADER.unpack_from(frame.payload)
        data = frame.payload[_UDP_HEADER.size :]
        sock = self._udp_sockets.get(dst_port)
        if sock is None:
            return  # no listener: datagram silently dropped, like real UDP
        src_addr = self._source_address(interface, frame)
        sock._deliver(src_addr, src_port, data)

    def _on_tcp_frame(self, interface: Interface, frame: Frame) -> None:
        payload = frame.payload
        if len(payload) < _TCP_HEADER.size:
            return
        kind, src_port, dst_port, _seq = _TCP_HEADER.unpack_from(payload)
        # One lookup finds the sender; a loopback frame's source is the
        # receiving interface itself.
        sender = self._by_hw.get(frame.src.value)
        peer = (
            sender.node_address
            if sender is not None
            else self._source_address(interface, frame)
        )
        self._dispatch_tcp(peer, kind, src_port, dst_port, payload, _TCP_HEADER.size)

    def _on_tcpv_frame(self, interface: Interface, frame: Frame) -> None:
        """Unpack a vectored transmission into its constituent TCP-like
        frames and dispatch each; sub-frame bodies are zero-copy
        ``memoryview`` slices over the one frame payload."""
        peer = self._source_address(interface, frame)
        view = memoryview(frame.payload)
        offset = 0
        total = len(view)
        while offset + _VECTOR_LEN.size <= total:
            (length,) = _VECTOR_LEN.unpack_from(view, offset)
            offset += _VECTOR_LEN.size
            sub = view[offset : offset + length]
            offset += length
            if len(sub) < _TCP_HEADER.size:
                continue
            kind, src_port, dst_port, _seq = _TCP_HEADER.unpack_from(sub)
            self._dispatch_tcp(peer, kind, src_port, dst_port, sub, _TCP_HEADER.size)

    def _dispatch_tcp(
        self,
        peer: NodeAddress,
        kind: int,
        src_port: int,
        dst_port: int,
        payload: bytes | memoryview,
        offset: int,
    ) -> None:
        """Shared TCP-like state machine for plain and vectored frames.
        ``payload[offset:]`` is the frame body; it is only materialised
        (and only copied for non-zero-copy connections) on _DATA."""
        key = (peer, src_port, dst_port)
        conn = self._connections.get(key)

        if kind == _SYN:
            self._handle_syn(peer, src_port, dst_port)
        elif kind == _SYN_ACK:
            if conn is not None and conn.state == Connection.SYN_SENT:
                conn.state = Connection.ESTABLISHED
                conn._send_frame(_ACK, b"")
                if self._pending_connects.pop(key, None) is not None:
                    conn._settle_connect(None)
        elif kind == _ACK:
            if conn is not None and conn.state == Connection.SYN_RECEIVED:
                conn.state = Connection.ESTABLISHED
                listener = self._listeners.get(dst_port)
                if listener is not None and not listener.closed:
                    listener.on_connection(conn)
        elif kind == _DATA:
            if conn is not None and conn.state == Connection.ESTABLISHED:
                if conn.zero_copy:
                    view = (
                        payload
                        if isinstance(payload, memoryview)
                        else memoryview(payload)
                    )
                    conn._deliver_data(view[offset:])
                else:
                    body = payload[offset:]
                    if not isinstance(body, bytes):
                        body = bytes(body)
                    conn._deliver_data(body)
            elif conn is None:
                # Data for a connection this host no longer knows — the
                # process rebooted (see :meth:`reboot`) or state was
                # reclaimed.  Answer RST from a throwaway shell so the
                # sender tears down instead of trusting a half-open
                # connection whose FIFO reply order is gone.
                shell = Connection(self, dst_port, peer, src_port)
                shell._send_frame(_RST, b"")
        elif kind == _FIN:
            if conn is not None:
                conn._send_frame(_FIN_ACK, b"")
                conn._enter_closed()
        elif kind == _FIN_ACK:
            if conn is not None:
                conn._enter_closed()
        elif kind == _RST:
            if conn is not None:
                if self._pending_connects.pop(key, None) is not None:
                    self._forget_connection(conn)
                    conn.state = Connection.CLOSED
                    conn._settle_connect(
                        TransportError(f"connection refused by {peer}:{src_port}")
                    )
                else:
                    conn._enter_closed()

    def _handle_syn(self, peer: NodeAddress, peer_port: int, local_port: int) -> None:
        listener = self._listeners.get(local_port)
        if listener is None or listener.closed:
            # Refuse: reply RST from an unbound throwaway connection shell.
            shell = Connection(self, local_port, peer, peer_port)
            shell._send_frame(_RST, b"")
            return
        conn = Connection(self, local_port, peer, peer_port)
        conn.state = Connection.SYN_RECEIVED
        self._connections[conn.key] = conn
        conn._send_frame(_SYN_ACK, b"")

    # -- bookkeeping ------------------------------------------------------------

    def _source_address(self, interface: Interface, frame: Frame) -> NodeAddress:
        if frame.note == "loopback":
            return interface.node_address
        return self.network.resolve_hw(frame.src).node_address

    def _claim_port(self, port: int | None, table, what: str) -> int:
        if port is None:
            while self._ephemeral in self._udp_sockets or self._ephemeral in self._listeners:
                self._ephemeral += 1
            port = self._ephemeral
            self._ephemeral += 1
            return port
        if port in table:
            raise TransportError(f"{what} port {port} already in use on {self.node.name}")
        return port

    def _release_udp(self, port: int) -> None:
        self._udp_sockets.pop(port, None)

    def _release_listener(self, port: int) -> None:
        self._listeners.pop(port, None)

    def _forget_connection(self, conn: Connection) -> None:
        self._connections.pop(conn.key, None)

    @property
    def open_connections(self) -> int:
        """Live TCP-like connection count (per-connection state is the
        'heavy stack' cost the paper worries about on small devices)."""
        return len(self._connections)

    # -- teardown ------------------------------------------------------------

    def reboot(self) -> None:
        """Process death (cold crash): connection state is lost wholesale.

        Pending connects fail, established connections are aborted
        locally (the RST is best-effort — the interfaces are typically
        already down when this runs), and parked reactor continuations
        die with the process.  Listeners and datagram sockets survive:
        they model the port bindings the recovering process
        re-establishes with the same handlers.  Peers that still
        believe in a pre-reboot connection learn the truth from the RST
        their next data frame draws (see ``_dispatch_tcp``).
        """
        for conn in list(self._pending_connects.values()):
            conn._settle_connect(TransportError("process rebooted"))
        self._pending_connects.clear()
        for conn in list(self._connections.values()):
            conn.abort()
        self._connections.clear()
        self.reactor.cancel_all()

    def shutdown(self) -> None:
        """Tear the whole stack down (node decommission / kill).

        Closes listeners and datagram sockets, fails pending connects,
        aborts live connections, and cancels every continuation still
        parked on the reactor — after this the reactor's ``parked`` gauge
        is 0 and nothing can leak (the shutdown-semantics tests and the
        testkit oracles pin exactly that).
        """
        for listener in list(self._listeners.values()):
            listener.close()
        for sock in list(self._udp_sockets.values()):
            sock.close()
        for conn in list(self._pending_connects.values()):
            conn._settle_connect(TransportError("transport stack shut down"))
        self._pending_connects.clear()
        for conn in list(self._connections.values()):
            conn.abort()
        self.reactor.cancel_all()
