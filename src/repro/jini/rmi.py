"""RMI-like remote method invocation.

Each node that exports remote objects runs one :class:`RmiRuntime` on a TCP
port.  Calls are length-prefixed marshalled records multiplexed over cached
connections (like JRMP connection reuse) — this is deliberately *cheaper*
per call than SOAP's one-connection-per-request HTTP, so the F2/C1
benchmarks can show the conversion overhead the framework pays.

Remote object references (:class:`RemoteRef`) are plain data and travel
inside lookup-service registrations and event registrations.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.errors import JiniError, MarshallingError, TransportError
from repro.net.addressing import NodeAddress
from repro.net.simkernel import SimFuture
from repro.net.transport import Connection, TransportStack
from repro.jini.marshalling import marshal, unmarshal

DEFAULT_RMI_PORT = 1099

_LEN = struct.Struct("!I")

_REF_KEY = "__jini_remote_ref__"


class RemoteRef:
    """Reference to an exported remote object."""

    __slots__ = ("address", "port", "object_id", "interfaces")

    def __init__(
        self,
        address: NodeAddress,
        port: int,
        object_id: int,
        interfaces: tuple[str, ...] = (),
    ) -> None:
        self.address = address
        self.port = port
        self.object_id = object_id
        self.interfaces = tuple(interfaces)

    def to_wire(self) -> dict[str, Any]:
        return {
            _REF_KEY: True,
            "address": str(self.address),
            "port": self.port,
            "object_id": self.object_id,
            "interfaces": list(self.interfaces),
        }

    @staticmethod
    def from_wire(data: dict[str, Any]) -> "RemoteRef":
        if not isinstance(data, dict) or not data.get(_REF_KEY):
            raise JiniError(f"not a remote reference: {data!r}")
        return RemoteRef(
            address=NodeAddress.parse(data["address"]),
            port=int(data["port"]),
            object_id=int(data["object_id"]),
            interfaces=tuple(data.get("interfaces", ())),
        )

    @staticmethod
    def is_wire_ref(data: Any) -> bool:
        return isinstance(data, dict) and bool(data.get(_REF_KEY))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RemoteRef)
            and (self.address, self.port, self.object_id)
            == (other.address, other.port, other.object_id)
        )

    def __hash__(self) -> int:
        return hash((self.address, self.port, self.object_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteRef {self.address}:{self.port}#{self.object_id}>"


class _StreamDecoder:
    """Splits a byte stream into length-prefixed records."""

    def __init__(self) -> None:
        self._buffer = b""

    def feed(self, data: bytes) -> list[bytes]:
        self._buffer += data
        records: list[bytes] = []
        while True:
            if len(self._buffer) < _LEN.size:
                return records
            (length,) = _LEN.unpack_from(self._buffer)
            if len(self._buffer) < _LEN.size + length:
                return records
            records.append(self._buffer[_LEN.size : _LEN.size + length])
            self._buffer = self._buffer[_LEN.size + length :]


def _frame(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + payload


class RmiRuntime:
    """Per-node RMI engine: export table + call dispatch + client cache."""

    def __init__(
        self,
        stack: TransportStack,
        port: int = DEFAULT_RMI_PORT,
        advertise_address: NodeAddress | None = None,
    ) -> None:
        """``advertise_address`` is the address baked into exported
        RemoteRefs — on a multi-homed node (a gateway) it must be the
        island-facing interface, not whichever interface came first."""
        self.stack = stack
        self.sim = stack.sim
        self.port = port
        self.advertise_address = advertise_address or stack.local_address()
        self._objects: dict[int, Any] = {}
        self._next_object_id = 1
        self._next_call_id = 1
        self._listener = stack.listen(port, self._on_server_connection)
        self._client_conns: dict[tuple[NodeAddress, int], SimFuture] = {}
        self._pending: dict[int, SimFuture] = {}
        self.calls_dispatched = 0
        self.calls_sent = 0

    # -- export side ------------------------------------------------------------

    def export(self, obj: Any, interfaces: tuple[str, ...] = ()) -> RemoteRef:
        """Make ``obj``'s public methods remotely callable."""
        object_id = self._next_object_id
        self._next_object_id += 1
        self._objects[object_id] = obj
        return RemoteRef(
            address=self.advertise_address,
            port=self.port,
            object_id=object_id,
            interfaces=interfaces,
        )

    def unexport(self, ref: RemoteRef) -> None:
        self._objects.pop(ref.object_id, None)

    def close(self) -> None:
        self._listener.close()

    # -- call side ------------------------------------------------------------

    def call(self, ref: RemoteRef, method: str, args: list[Any]) -> SimFuture:
        """Invoke ``method(*args)`` on the remote object; resolves to the
        return value or fails with :class:`JiniError` / transport errors."""
        call_id = self._next_call_id
        self._next_call_id += 1
        self.calls_sent += 1
        result: SimFuture = SimFuture()
        self._pending[call_id] = result
        record = marshal(
            {
                "kind": "call",
                "call_id": call_id,
                "object_id": ref.object_id,
                "method": method,
                "args": args,
            }
        )

        def on_connection(future: SimFuture) -> None:
            exc = future.exception()
            if exc is not None:
                self._pending.pop(call_id, None)
                result.set_exception(exc)
                return
            conn: Connection = future.result()
            try:
                conn.send(_frame(record))
            except TransportError as send_exc:
                self._pending.pop(call_id, None)
                result.set_exception(send_exc)

        self._connection_to(ref.address, ref.port).add_done_callback(on_connection)
        return result

    def one_way(self, ref: RemoteRef, method: str, args: list[Any]) -> None:
        """Fire-and-forget call (used for event delivery)."""
        future = self.call(ref, method, args)
        future.add_done_callback(lambda _f: _f.exception())  # swallow outcome

    # -- connection management ---------------------------------------------------

    def _connection_to(self, address: NodeAddress, port: int) -> SimFuture:
        key = (address, port)
        cached = self._client_conns.get(key)
        if cached is not None:
            if not cached.done():
                return cached
            if cached.exception() is None:
                conn: Connection = cached.result()
                if conn.state == Connection.ESTABLISHED:
                    return cached
            del self._client_conns[key]
        future = self.stack.connect(address, port)
        self._client_conns[key] = future

        def wire_up(connected: SimFuture) -> None:
            if connected.exception() is not None:
                self._client_conns.pop(key, None)
                return
            conn: Connection = connected.result()
            decoder = _StreamDecoder()
            conn.set_receiver(
                lambda _c, data: self._on_client_records(decoder.feed(data))
            )
            conn.on_close(lambda _c: self._client_conns.pop(key, None))

        future.add_done_callback(wire_up)
        return future

    def _on_client_records(self, records: list[bytes]) -> None:
        for record in records:
            try:
                message = unmarshal(record)
            except MarshallingError:
                continue
            call_id = message.get("call_id")
            future = self._pending.pop(call_id, None)
            if future is None:
                continue
            if message.get("kind") == "result":
                future.set_result(message.get("value"))
            else:
                future.set_exception(
                    JiniError(message.get("error", "remote invocation failed"))
                )

    # -- server side ------------------------------------------------------------

    def _on_server_connection(self, conn: Connection) -> None:
        decoder = _StreamDecoder()

        def on_data(connection: Connection, data: bytes) -> None:
            for record in decoder.feed(data):
                self._serve_record(connection, record)

        conn.set_receiver(on_data)

    def _serve_record(self, conn: Connection, record: bytes) -> None:
        try:
            message = unmarshal(record)
        except MarshallingError as exc:
            self._reply(conn, {"kind": "error", "call_id": -1, "error": str(exc)})
            return
        call_id = message.get("call_id", -1)
        obj = self._objects.get(message.get("object_id"))
        if obj is None:
            self._reply(
                conn,
                {
                    "kind": "error",
                    "call_id": call_id,
                    "error": f"no exported object {message.get('object_id')!r}",
                },
            )
            return
        method_name = message.get("method", "")
        method: Callable[..., Any] | None = getattr(obj, method_name, None)
        if method is None or method_name.startswith("_") or not callable(method):
            self._reply(
                conn,
                {
                    "kind": "error",
                    "call_id": call_id,
                    "error": f"object has no remote method {method_name!r}",
                },
            )
            return
        try:
            value = method(*message.get("args", []))
        except Exception as exc:
            self._reply(
                conn,
                {"kind": "error", "call_id": call_id, "error": f"{type(exc).__name__}: {exc}"},
            )
            return
        self.calls_dispatched += 1
        if isinstance(value, SimFuture):
            value.add_done_callback(
                lambda future: self._reply_future(conn, call_id, future)
            )
        else:
            self._reply(conn, {"kind": "result", "call_id": call_id, "value": value})

    def _reply_future(self, conn: Connection, call_id: int, future: SimFuture) -> None:
        exc = future.exception()
        if exc is not None:
            self._reply(conn, {"kind": "error", "call_id": call_id, "error": str(exc)})
        else:
            self._reply(conn, {"kind": "result", "call_id": call_id, "value": future.result()})

    def _reply(self, conn: Connection, message: dict[str, Any]) -> None:
        if conn.state != Connection.ESTABLISHED:
            return
        try:
            conn.send(_frame(marshal(message)))
        except (TransportError, MarshallingError):
            pass  # peer went away or unmarshalable result; nothing to tell it
