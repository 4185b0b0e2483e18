"""HTTP transport over the simulated TCP: two wires, ``legacy`` and ``modern``.

The legacy wire is the era the paper describes: HTTP/1.0, one connection
per exchange (``Connection: close``), textual headers, ``Content-Length``
framing.  The deliberate costs — handshake round trips, header bytes,
per-connection state — are what experiments C3/C4 measure.

The F2 experiment showed those costs dominate the bridged path (~13× the
latency, ~14× the bytes of native RMI, almost all TCP handshakes plus XML),
so a client may instead run the *modern* wire (:class:`InterchangeConfig`
with ``modern=True``):

- **keep-alive** — HTTP/1.1 connections, persistent by default so no
  ``Connection`` header is sent, with a per-destination pool
  (:class:`HttpClient`), an idle timeout, an LRU cap on pooled
  destinations, and :meth:`HttpClient.invalidate` so the resilience
  layer can evict a pooled connection into a partitioned or crashed peer
  instead of reusing it;
- **reactor** — pooled connections coalesce their writes into vectored
  segment transmissions, take zero-copy reads, and pipeline up to
  ``pipeline_depth`` exchanges once the peer has answered persistently;
- **compression** — modern bodies past a size floor travel
  gzip-compressed by one rule (:func:`compress_past_floor`;
  deterministically: fixed level, zeroed mtime).  Terse requests and
  answers and push event frames are compressed by their sender; a
  verbose reply only when its request sent ``Accept-Encoding: gzip``.

Negotiation is one token: a modern SOAP client sends ``X-Interchange:
modern`` to a peer until the peer has echoed it, and every server echoes
it back to a request that carries it (see ``repro.soap.client``).
Persistence follows RFC 7230 §6.3 on both sides (:func:`persists`).  The
server side is reactive and always on, so a legacy exchange is
byte-identical to the seed wire format whatever either island is
configured for.
"""

from __future__ import annotations

import functools
import gzip
import heapq
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ProtocolError, TransportError
from repro.net.addressing import NodeAddress
from repro.net.simkernel import Event, SimFuture
from repro.net.transport import Connection, TransportStack
from repro.obs import NOOP_OBS, NULL_SPAN

_HEADER_END = b"\r\n\r\n"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Negotiation header: a modern client sends it, the server echoes it.
FEATURES_HEADER = "X-Interchange"
#: The one negotiation token.
MODERN_TOKEN = "modern"
#: Bodies below this size are never compressed (either direction).
COMPRESS_MIN_BYTES = 200
#: Bodies each direction of the gzip codec remembers.  Compression is a
#: pure function of the body, and device replies and event frames repeat
#: within one world, so a small LRU answers most of them without
#: allocating a deflate or inflate state.
GZIP_MEMO_SIZE = 64
#: Distinct ``Connection`` and ``Accept-Encoding`` values whose reading
#: is remembered (:func:`persists`, :func:`accepts_gzip`).
_HEADER_MEMO_SIZE = 32
#: LRU cap on pooled destinations; the least-recently-used idle
#: destination is closed when the cap is exceeded.
POOL_DESTINATIONS = 8
#: Virtual seconds an idle pooled connection survives before closing.
IDLE_TIMEOUT = 30.0
#: Virtual seconds before a started exchange is declared wedged: the
#: request future fails with :class:`TransportError` and the underlying
#: connection is torn down.  Without this a reply lost to a crashed or
#: partitioned peer parks the exchange (and its pooled connection, and
#: its trace spans) forever — there is no transport retransmission.
EXCHANGE_TIMEOUT = 60.0


@dataclass(frozen=True)
class InterchangeConfig:
    """Which wire an island's clients speak.

    The default instance is the legacy wire (one connection per exchange,
    verbose XML, no compression) so the F2/C-series baselines stay
    measurable; :data:`REACTOR_INTERCHANGE` is the modern wire.
    """

    #: Pooled keep-alive reactor connections, the ``modern`` token, terse
    #: envelopes, gzip and push event channels.
    modern: bool = False
    #: Concurrent exchanges allowed on one pooled connection (HTTP
    #: pipelining).  Effective only once the peer has proven keep-alive —
    #: the first exchange on a fresh connection is always one-in-flight.
    #: 1 = strictly serial.
    pipeline_depth: int = 1


#: The seed wire behaviour: HTTP/1.0, connection per exchange, verbose XML.
LEGACY_INTERCHANGE = InterchangeConfig()
#: The modern wire: keep-alive reactor connections pipelined 32 deep,
#: terse gzip envelopes and streamed push event channels.
REACTOR_INTERCHANGE = InterchangeConfig(modern=True, pipeline_depth=32)


@functools.lru_cache(maxsize=GZIP_MEMO_SIZE)
def gzip_bytes(data: bytes) -> bytes:
    """Deterministic gzip (fixed level, zeroed mtime) so identical runs
    put identical bytes on the wire.

    Being a pure function of ``data``, it is memoised: a device that
    answers the same reply again, or a publisher that sends the same
    event frame again, is not compressed twice.  ``data`` must be
    ``bytes`` (the memo hashes it)."""
    return gzip.compress(data, compresslevel=6, mtime=0)


def compress_past_floor(body: bytes, headers: dict[str, str]) -> bytes:
    """The one gzip rule of the modern wire: a body of at least
    :data:`COMPRESS_MIN_BYTES` is gzipped and ``headers`` marked with
    ``Content-Encoding: gzip``; a smaller one travels plain."""
    if len(body) < COMPRESS_MIN_BYTES:
        return body
    headers["Content-Encoding"] = "gzip"
    return gzip_bytes(body)


@functools.lru_cache(maxsize=GZIP_MEMO_SIZE)
def gunzip_bytes(data: bytes) -> bytes:
    """The body of a gzip stream, in one zlib pass.  Anything but one
    member ending exactly at the end of ``data`` (several members, padding,
    a corrupt stream) goes to ``gzip.decompress``, so each of those reads
    or fails as it always has; a failure raises :class:`ProtocolError`, as
    does an empty body, which holds no gzip member at all.

    Memoised like :func:`gzip_bytes`; a failure is raised, never
    remembered, so a bad body fails again on every call."""
    if not data:
        raise ProtocolError("bad gzip body: empty")
    inflater = zlib.decompressobj(wbits=31)
    try:
        body = inflater.decompress(data)
    except zlib.error:
        pass
    else:
        if inflater.eof and not inflater.unused_data:
            return body
    try:
        return gzip.decompress(data)
    except Exception as exc:
        raise ProtocolError(f"bad gzip body: {exc}") from exc


def _is_ascii_digits(text: str) -> bool:
    """``str.isdigit`` accepts superscripts and other scripts' digits,
    which ``int`` then rejects or reads as a different number."""
    return text.isascii() and text.isdigit()


def reason_for(status: int) -> str:
    """Default reason phrase for a status code."""
    return _REASONS.get(status, "Unknown")


@functools.lru_cache(maxsize=_HEADER_MEMO_SIZE)
def persists(version: str, connection: str) -> bool:
    """Whether a message keeps its connection open (RFC 7230 §6.3).

    ``close`` among the ``Connection`` tokens always closes; otherwise
    HTTP/1.1 persists by default and HTTP/1.0 only with ``keep-alive``.
    A peer sends the same few values again and again, so each is read once.
    """
    tokens = {token.strip().lower() for token in connection.split(",")}
    if "close" in tokens:
        return False
    if version == "HTTP/1.1":
        return True
    return version == "HTTP/1.0" and "keep-alive" in tokens


@functools.lru_cache(maxsize=_HEADER_MEMO_SIZE)
def accepts_gzip(accept_encoding: str) -> bool:
    """Whether an ``Accept-Encoding`` value admits a gzip body.

    The codings are comma-separated, each with an optional ``;q=``
    weight (RFC 7231 §5.3.4): an explicit ``gzip`` entry decides, else
    ``*`` does, and a weight of zero (or an unreadable one) is a refusal.
    Memoised like :func:`persists`.
    """
    weights: dict[str, float] = {}
    for coding in accept_encoding.lower().split(","):
        name, _, param = coding.partition(";")
        key, _, value = param.partition("=")
        try:
            weight = float(value) if key.strip() == "q" else 1.0
        except ValueError:
            weight = 0.0
        weights.setdefault(name.strip(), weight)
    return weights.get("gzip", weights.get("*", 0.0)) > 0


class _HttpMessage:
    """What requests and responses share: serialisation, and a case-folded
    header index instead of an O(n) scan per :meth:`header` call.  The
    index comes with a copy of the headers it was built from, and is
    rebuilt whenever the headers no longer equal that copy (one dict
    comparison, in C), so a header added, removed, replaced or changed in
    place is seen by the next read.  A parsed message takes the index its
    head parse built, so reading its headers is one call."""

    headers: dict[str, str]
    body: bytes
    version: str
    #: The headers as they were when ``_index`` was built (None: never).
    _indexed: dict[str, str] | None = None
    _index: dict[str, str]

    def header(self, name: str, default: str = "") -> str:
        headers = self.headers
        if headers != self._indexed:
            self._indexed = dict(headers)
            self._index = {key.lower(): value for key, value in headers.items()}
        return self._index.get(name.lower(), default)

    def _serialise(self, start_line: bytes) -> bytes:
        """The message on the wire, after ``start_line`` (CRLF included).
        ``Content-Length`` (and, on HTTP/1.0, ``Connection: close``) are
        added unless already present in any spelling: the parser folds
        case, so a second copy would make the message unreadable."""
        lines = []
        present = set()
        for key, value in self.headers.items():
            lines.append(f"{key}: {value}\r\n")
            present.add(key.lower())
        if "content-length" not in present:
            lines.append(f"Content-Length: {len(self.body)}\r\n")
        if self.version == "HTTP/1.0" and "connection" not in present:
            lines.append("Connection: close\r\n")
        lines.append("\r\n")
        return start_line + "".join(lines).encode("latin-1") + self.body


@functools.lru_cache(maxsize=_HEADER_MEMO_SIZE)
def _status_line(version: str, status: int, reason: str) -> bytes:
    """A response's start line, encoded once: a server answers with the
    same few lines all its life."""
    return f"{version} {status} {reason}\r\n".encode("ascii")


@dataclass
class HttpRequest(_HttpMessage):
    """One HTTP request message."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.0"

    def to_bytes(self) -> bytes:
        return self._serialise(f"{self.method} {self.path} {self.version}\r\n".encode("ascii"))


@dataclass
class HttpResponse(_HttpMessage):
    """One HTTP response message."""

    status: int
    reason: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.0"

    def __post_init__(self) -> None:
        if not self.reason:
            self.reason = reason_for(self.status)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def to_bytes(self) -> bytes:
        return self._serialise(_status_line(self.version, self.status, self.reason))


def _parse_head(raw: bytes) -> tuple[list[str], dict[str, str], dict[str, str]]:
    """Split the header block into (start-line parts, headers, index), the
    index mapping each lower-cased name to its value.

    Repeated header lines fold into one comma-joined value (RFC 2616
    §4.2) instead of the last occurrence silently winning; the fold is
    case-insensitive, keeping the first spelling of the name.

    A field name must be non-empty and hold no whitespace (RFC 7230
    §3.2.4): ``Content-Length : 5`` is the request-smuggling shape, and a
    line that starts with whitespace is an obs-fold continuation, not a
    new header.  Either raises :class:`ProtocolError`.
    """
    lines = raw.decode("latin-1").split("\r\n")
    start = lines[0].split(" ", 2)
    headers: dict[str, str] = {}
    index: dict[str, str] = {}  # folded name -> value
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name or " " in name or "\t" in name:
            if not line:
                continue
            raise ProtocolError(f"malformed header line {line!r}")
        value = value.strip()
        folded = name.lower()
        if folded in index:
            # A repeat: fold into the first spelling of the name.
            name = next(seen for seen in headers if seen.lower() == folded)
            value = f"{headers[name]}, {value}"
        headers[name] = value
        index[folded] = value
    return start, headers, index


class _MessageAssembler:
    """Cuts complete HTTP messages out of the stream bytes of one
    connection.

    Reusable across messages on one keep-alive connection.  A delivery
    that holds whole messages (the common case) is read in place: each
    head is parsed once, and each body is one slice of the delivery.
    Surplus bytes of a further message stay where they are until the
    caller asks for the next one with ``feed(b"")``.  Only a message cut
    across deliveries is collected in a ``bytearray`` until it completes.

    ``feed`` accepts zero-copy ``memoryview`` slices from the reactor
    transport as readily as ``bytes``.
    """

    __slots__ = ("_data", "_pos", "_buffer", "_head", "_body_needed")

    def __init__(self) -> None:
        #: The delivery being read, and where its unread bytes start.
        self._data = b""
        self._pos = 0
        #: The start of a message that did not complete in one delivery:
        #: its head (or, once ``_head`` is parsed, its body so far).
        self._buffer = bytearray()
        self._head: tuple[list[str], dict[str, str], dict[str, str]] | None = None
        self._body_needed = 0

    @property
    def has_buffered(self) -> bool:
        """True when bytes of a further message are already buffered."""
        return bool(self._data or self._buffer)

    def feed(
        self, data: bytes | memoryview
    ) -> tuple[list[str], dict[str, str], dict[str, str], bytes] | None:
        """Returns (start-line parts, headers, header index, body) once
        complete (see :func:`_parse_head`)."""
        pos = 0
        if self._data:
            if data:
                # New bytes behind an unread surplus: join them.
                self._buffer += memoryview(self._data)[self._pos :]
            else:
                data, pos = self._data, self._pos
            self._data = b""
        buffer = self._buffer
        if buffer:
            buffer += data
            if self._head is None:
                if buffer.find(_HEADER_END) < 0:
                    return None
            elif len(buffer) < self._body_needed:
                return None
            data = bytes(buffer)
            buffer.clear()
        elif not pos:
            data = bytes(data)
        head = self._head
        if head is None:
            end = data.find(_HEADER_END, pos)
            if end < 0:
                buffer += memoryview(data)[pos:]
                return None
            head = _parse_head(data[pos:end])
            index = head[2]
            # Only Content-Length framing is spoken: a chunked body read as
            # empty would desynchronise every message behind it.
            if "transfer-encoding" in index:
                raise ProtocolError("Transfer-Encoding is not supported")
            length = index.get("content-length", "0")
            if not (length.isascii() and length.isdigit()):  # as _is_ascii_digits
                raise ProtocolError(f"bad Content-Length {length!r}")
            need = int(length)
            pos = end + len(_HEADER_END)
        else:
            need = self._body_needed
        stop = pos + need
        if len(data) < stop:
            # The body continues in a later delivery.
            self._head = head
            self._body_needed = need
            buffer += memoryview(data)[pos:]
            return None
        self._head = None
        if stop < len(data):
            self._data, self._pos = data, stop
        return head[0], head[1], head[2], data[pos:stop]


def _is_request_line(start: list[str]) -> bool:
    """``method SP request-target SP HTTP/<digit>.<digit>`` (RFC 7230
    §3.1.1), every part non-empty: a doubled space leaves an empty part
    and shifts the rest into the version."""
    if len(start) != 3:
        return False
    method, target, version = start
    return (
        bool(method)
        and bool(target)
        and len(version) == 8
        and version.startswith("HTTP/")
        and version[6] == "."
        and _is_ascii_digits(version[5] + version[7])
    )


def _build_response(
    start: list[str], headers: dict[str, str], index: dict[str, str], body: bytes
) -> HttpResponse:
    """Turn an assembled message into an :class:`HttpResponse`, raising
    :class:`ProtocolError` on a bad status line or undecodable body."""
    if len(start) < 2 or not (start[1].isascii() and start[1].isdigit()):
        raise ProtocolError("bad status line")
    reason = start[2] if len(start) > 2 else ""
    response = HttpResponse(
        status=int(start[1]), reason=reason, headers=headers, body=body,
        version=start[0],
    )
    response._indexed = dict(headers)
    response._index = index
    if index.get("content-encoding", "").lower() == "gzip":
        response.body = gunzip_bytes(response.body)
    return response


#: Server handler signature.
Handler = Callable[[HttpRequest], HttpResponse]


class _Slot:
    """One request on a server connection, waiting for its response."""

    __slots__ = ("link", "request", "keep", "response", "continuation")

    def __init__(self, link: "_ServerConnection", request: HttpRequest, keep: bool) -> None:
        self.link = link
        self.request = request
        self.keep = keep
        self.response: HttpResponse | None = None
        #: The reactor continuation an asynchronous handler parks on.
        self.continuation = None

    def settle(self, future: SimFuture) -> None:
        """An asynchronous handler resolved: answer with its response, or
        500 when it failed."""
        if self.response is not None:
            return  # already answered by shutdown cancellation
        self.continuation.finish()
        exc = future.exception()
        if exc is not None:
            self.response = HttpResponse(500, body=str(exc).encode("utf-8"))
        else:
            self.response = future.result()
        self.link.flush()

    def abandon(self) -> None:
        """Continuation cancelled (server closed) before the handler
        resolved: answer the held exchange so the client is not left
        parked, and close the connection behind it."""
        if self.response is not None:
            return
        self.keep = False
        self.response = HttpResponse(503, body=b"server shutting down")
        self.link.flush()


class _ServerConnection:
    """One accepted connection's state: its assembler, how many requests
    it has served, and its requests still waiting to be answered.

    Pipelined responses must leave in request order even when async
    handlers resolve out of order: each request claims a :class:`_Slot`
    at the tail and completed slots flush strictly from the head.
    """

    __slots__ = ("server", "conn", "assembler", "served", "slots")

    def __init__(self, server: "HttpServer", conn: Connection) -> None:
        self.server = server
        self.conn = conn
        self.assembler = _MessageAssembler()
        self.served = 0
        self.slots: deque[_Slot] = deque()

    def flush(self) -> None:
        slots = self.slots
        while slots and slots[0].response is not None:
            slot = slots.popleft()
            self.server._respond(self.conn, slot.request, slot.response, slot.keep)

    def on_data(self, connection: Connection, data: bytes) -> None:
        server = self.server
        while True:
            try:
                complete = self.assembler.feed(data)
            except ProtocolError:
                server._respond(
                    connection, None, HttpResponse(400, body=b"malformed request"),
                    keep=False,
                )
                return
            if complete is None:
                return
            start, headers, index, body = complete
            if not _is_request_line(start):
                server._respond(
                    connection, None, HttpResponse(400, body=b"bad request line"),
                    keep=False,
                )
                return
            request = HttpRequest(
                method=start[0], path=start[1], headers=headers, body=body,
                version=start[2],
            )
            request._indexed = dict(headers)
            request._index = index
            if index.get("content-encoding", "").lower() == "gzip":
                try:
                    request.body = gunzip_bytes(request.body)
                except ProtocolError:
                    server._respond(
                        connection, None, HttpResponse(400, body=b"bad gzip body"),
                        keep=False,
                    )
                    return
            if self.served:
                server.keepalive_reuses += 1
            self.served += 1
            server._dispatch(self, request)
            # Loop in case a further pipelined request is buffered.
            data = b""
            if not self.assembler.has_buffered:
                return


class HttpServer:
    """Routes requests by exact path, with optional prefix routes.

    The server side of the modern wire is reactive and always on, because
    it only ever activates when a request asks for it (so legacy exchanges
    stay byte-identical): gzip request bodies are decompressed, responses
    to requests that accept gzip (:func:`accepts_gzip`) are compressed
    past a size floor unless the handler already chose an encoding, the
    ``modern`` token is echoed only to requests that carry it,
    and a connection is kept open, with coalesced writes, whenever the
    request persists by RFC 7230 §6.3 (:func:`persists`): an HTTP/1.1
    request without ``Connection: close``, or an HTTP/1.0 one with
    ``keep-alive``.  Persistent responses are HTTP/1.1 and carry no
    ``Connection`` header.
    """

    def __init__(self, stack: TransportStack, port: int = 80) -> None:
        self.stack = stack
        self.port = port
        self._routes: dict[str, Handler] = {}
        self._prefix_routes: list[tuple[str, Handler]] = []
        self._listener = stack.listen(port, self._on_connection)
        self.requests_served = 0
        self.keepalive_reuses = 0

    def register(self, path: str, handler: Handler) -> None:
        self._routes[path] = handler

    def register_prefix(self, prefix: str, handler: Handler) -> None:
        self._prefix_routes.append((prefix, handler))

    def close(self) -> None:
        self._listener.close()
        # Cancel every held exchange still parked on the reactor: each
        # continuation answers its slot with 503 so no connection is left
        # waiting on a server that no longer exists.
        self.stack.reactor.cancel_key(self)

    # -- internals ------------------------------------------------------------

    def _on_connection(self, conn: Connection) -> None:
        # The assembler copies stream bytes at most once, so the server
        # can always take the transport's zero-copy inbound slices.
        conn.zero_copy = True
        conn.set_receiver(_ServerConnection(self, conn).on_data)

    def _dispatch(self, link: "_ServerConnection", request: HttpRequest) -> None:
        keep = persists(request.version, request.header("Connection"))
        if keep:
            # Only modern clients keep connections alive: coalesce our
            # side of the connection too.
            link.conn.vectored = True
        slot = _Slot(link, request, keep)
        link.slots.append(slot)
        handler = self._routes.get(request.path)
        if handler is None:
            for prefix, prefix_handler in self._prefix_routes:
                if request.path.startswith(prefix):
                    handler = prefix_handler
                    break
        if handler is None:
            slot.response = HttpResponse(404, body=b"no such path")
            link.flush()
            return
        try:
            response = handler(request)
        except Exception as exc:  # a handler bug must not kill the server
            response = HttpResponse(500, body=str(exc).encode("utf-8"))
        self.requests_served += 1
        if isinstance(response, SimFuture):
            # Asynchronous handler: the held exchange parks as a reactor
            # continuation until the handler resolves (or the server is
            # closed, which cancels the continuation and answers 503).
            slot.continuation = self.stack.reactor.park(self, on_cancel=slot.abandon)
            response.add_done_callback(slot.settle)
        else:
            slot.response = response
            link.flush()

    def _respond(
        self,
        conn: Connection,
        request: HttpRequest | None,
        response: HttpResponse,
        keep: bool,
    ) -> None:
        if conn.state != Connection.ESTABLISHED:
            return  # client gave up while an async handler was running
        if request is not None:
            if request.header(FEATURES_HEADER) == MODERN_TOKEN:
                response.headers.setdefault(FEATURES_HEADER, MODERN_TOKEN)
            if (
                len(response.body) >= COMPRESS_MIN_BYTES
                and not response.header("Content-Encoding")
                and accepts_gzip(request.header("Accept-Encoding"))
            ):
                response.body = compress_past_floor(response.body, response.headers)
        if keep:
            response.version = "HTTP/1.1"
        conn.send(response.to_bytes())
        if not keep:
            conn.close()


class _PooledConnection:
    """One destination's persistent connection: a FIFO of pending
    exchanges, up to ``pipeline_depth`` in flight at a time (responses
    match requests in order), an idle-close timer, and enough bookkeeping
    to die cleanly when the path does."""

    def __init__(self, client: "HttpClient", key: tuple[NodeAddress, int]) -> None:
        self.client = client
        self.key = key
        self.conn: Connection | None = None
        self.assembler = _MessageAssembler()
        self.queue: list[tuple[HttpRequest, SimFuture]] = []
        #: Futures of requests already written, in request order.
        self.inflight: deque[SimFuture] = deque()
        self.idle_timer: Event | None = None
        #: Invalidates this entry's records in the client's idle heap
        #: whenever it leaves the idle state (lazy deletion).
        self.idle_gen = 0
        #: The peer answered persistently at least once on the current
        #: connection; pipelining past depth 1 waits for this proof so a
        #: legacy server never sees overlapped requests.
        self.peer_keeps_alive = False
        self.connecting = False
        self.dead = False
        self.exchanges = 0

    # -- public (driven by HttpClient) ---------------------------------------

    def enqueue(self, request: HttpRequest, future: SimFuture) -> None:
        self._cancel_idle_timer()
        self.queue.append((request, future))
        if self.conn is not None and self.conn.state == Connection.ESTABLISHED:
            self._pump()
        elif not self.connecting:
            self._connect()

    def abort(self, exc: BaseException) -> None:
        """Evict: kill the transport connection and fail every pending
        exchange with ``exc`` so callers retry on a fresh connection."""
        if self.dead:
            return
        self.dead = True
        self._cancel_idle_timer()
        conn, self.conn = self.conn, None
        if conn is not None:
            conn.abort()
        inflight, self.inflight = list(self.inflight), deque()
        for future in inflight:
            if not future.done():
                future.set_exception(exc)
        queue, self.queue = self.queue, []
        for _request, future in queue:
            if not future.done():
                future.set_exception(exc)

    # -- internals ------------------------------------------------------------

    def _connect(self) -> None:
        self.connecting = True
        dst, port = self.key

        def on_connected(conn_future: SimFuture) -> None:
            self.connecting = False
            if self.dead:
                if conn_future.exception() is None:
                    conn_future.result().abort()
                return
            exc = conn_future.exception()
            if exc is not None:
                self.client._drop_entry(self)
                self.abort(exc)
                return
            self.conn = conn_future.result()
            # Reactor wire: coalesce our writes, take zero-copy reads (the
            # assembler accepts memoryview slices).
            self.conn.vectored = True
            self.conn.zero_copy = True
            self.assembler = _MessageAssembler()
            # Pipelining proof is per transport connection: a reconnect
            # starts one-in-flight again until the peer re-proves itself.
            self.peer_keeps_alive = False
            self.conn.set_receiver(self._on_data)
            self.conn.on_close(self._on_closed)
            self._pump()

        self.client.stack.connect(dst, port).add_done_callback(on_connected)

    def _pump(self) -> None:
        if not self.queue:
            return
        if self.conn is None or self.conn.state != Connection.ESTABLISHED:
            if not self.connecting:
                self._connect()
            return
        depth = (
            max(1, self.client.config.pipeline_depth)
            if self.peer_keeps_alive
            else 1
        )
        while self.queue and len(self.inflight) < depth:
            request, future = self.queue.pop(0)
            self.inflight.append(future)
            try:
                self.conn.send(request.to_bytes())
            except Exception as exc:
                self.inflight.pop()
                self.client._drop_entry(self)
                if not future.done():
                    future.set_exception(TransportError(f"pooled send failed: {exc}"))
                self.abort(TransportError(f"pooled connection unusable: {exc}"))
                return

    def _on_data(self, connection: Connection, data: bytes) -> None:
        # Loop: one delivery may complete several pipelined responses
        # (a vectored peer coalesces them into one transmission).
        while True:
            try:
                complete = self.assembler.feed(data)
                if complete is None:
                    return
                response = _build_response(*complete)
            except ProtocolError as exc:
                future = self.inflight.popleft() if self.inflight else None
                if future is not None and not future.done():
                    future.set_exception(exc)
                self.client._drop_entry(self)
                self.abort(TransportError("pooled connection desynchronised"))
                return
            self.exchanges += 1
            future = self.inflight.popleft() if self.inflight else None
            keep = persists(response.version, response.header("Connection"))
            if keep:
                self.peer_keeps_alive = True
            if future is not None and not future.done():
                future.set_result(response)
            if not keep:
                # Peer is closing after this exchange (legacy server):
                # anything pipelined behind it will never be answered;
                # queued-but-unsent requests reconnect fresh.
                conn, self.conn = self.conn, None
                if conn is not None:
                    conn.close()
                stranded, self.inflight = list(self.inflight), deque()
                for pending in stranded:
                    if not pending.done():
                        pending.set_exception(
                            TransportError("peer closed before pipelined response")
                        )
                if self.queue:
                    self._connect()
                elif not self.dead:
                    self.client._drop_entry(self)
                    self.dead = True
                return
            if self.queue:
                self._pump()
            if not self.inflight and not self.queue:
                self._start_idle_timer()
            data = b""
            if not self.assembler.has_buffered:
                return

    def _on_closed(self, connection: Connection) -> None:
        if self.dead or connection is not self.conn:
            return
        self.conn = None
        inflight, self.inflight = list(self.inflight), deque()
        for future in inflight:
            if not future.done():
                future.set_exception(TransportError("connection closed mid-response"))
        if self.queue:
            # Requests never sent are safe to replay on a new connection.
            self._connect()
        else:
            self.client._drop_entry(self)
            self.dead = True

    def give_up(self) -> BaseException:
        """An exchange's watchdog fired: the connection is wedged
        mid-exchange, and everything queued behind the stuck request is
        doomed with it."""
        dst, port = self.key
        exc = TransportError(
            f"pooled exchange with {dst}:{port} timed out after {EXCHANGE_TIMEOUT:g}s"
        )
        self.client._drop_entry(self)
        self.abort(exc)
        self.client._record_reap("pooled", dst, port)
        return exc

    def _start_idle_timer(self) -> None:
        self._cancel_idle_timer()
        deadline = self.client.stack.sim.now + IDLE_TIMEOUT
        self.idle_timer = self.client.stack.sim.deadline(IDLE_TIMEOUT, self._idle_close)
        self.client._note_idle(self, deadline)

    def _idle_close(self) -> None:
        self.idle_timer = None
        if self.inflight or self.queue:
            return
        self.client.idle_closes += 1
        self.client._drop_entry(self)
        self.abort(TransportError("pooled connection idle-closed"))

    def _cancel_idle_timer(self) -> None:
        # Leaving the idle state: stale idle-heap records for this entry
        # are invalidated by the generation bump (lazy deletion).
        self.idle_gen += 1
        if self.idle_timer is not None:
            self.idle_timer.cancel()
            self.idle_timer = None

    @property
    def idle(self) -> bool:
        return not self.inflight and not self.queue


class HttpClient:
    """HTTP exchanges: one-shot on the legacy wire, pooled keep-alive
    reactor connections on the modern wire."""

    def __init__(self, stack: TransportStack, config: InterchangeConfig | None = None) -> None:
        self.stack = stack
        self.config = config or LEGACY_INTERCHANGE
        self.requests_sent = 0
        self.pooled_exchanges = 0
        self.pool_hits = 0
        self.pool_misses = 0
        self.pooled_evictions = 0
        self.idle_closes = 0
        #: destination -> pooled entry, in LRU order (oldest first).
        self._pool: dict[tuple[NodeAddress, int], _PooledConnection] = {}
        #: Idle entries indexed by expiry deadline: a heap of
        #: ``(deadline, seq, entry, generation)`` records.  Records go
        #: stale (lazy deletion) when the entry leaves the idle state and
        #: bumps its ``idle_gen``; eviction pops from the head, so finding
        #: the next idle victim is O(evicted + stale) instead of a linear
        #: scan of the whole pool on every acquire.
        self._idle_heap: list[tuple[float, int, _PooledConnection, int]] = []
        self._idle_seq = 0
        #: Optional :class:`repro.obs.flight.FlightRecorder`: watchdog reaps
        #: record a ``watchdog_reap`` entry and trigger a dump.
        self.flight = None
        self.observe(NOOP_OBS)

    def observe(self, obs, label: str = "") -> "HttpClient":
        """Attach an observability bundle; ``label`` namespaces the pool
        and request metrics (e.g. the owning island's name)."""
        self.obs = obs
        self.label = label
        obs.metrics.track(
            f"http.{label}" if label else "http.client",
            self,
            "counter",
            {
                "requests": "requests_sent",
                "pool_hits": "pool_hits",
                "pool_misses": "pool_misses",
                "evictions": "pooled_evictions",
                "idle_closes": "idle_closes",
            },
        )
        return self

    # -- pool management --------------------------------------------------------

    def invalidate(self, dst: NodeAddress, port: int | None = None) -> None:
        """Evict pooled connections to ``dst`` (any port unless given).

        The resilience layer calls this when a circuit breaker opens or a
        call into ``dst`` fails with a connectivity error: a partitioned
        or crashed peer must not be reached through a stale pooled
        connection, and failing the pending exchanges here lets retries
        run on a fresh connection immediately.
        """
        for key in list(self._pool):
            if key[0] == dst and (port is None or key[1] == port):
                entry = self._pool.pop(key)
                self.pooled_evictions += 1
                entry.abort(TransportError(f"pooled connection to {dst} invalidated"))

    def _drop_entry(self, entry: _PooledConnection) -> None:
        current = self._pool.get(entry.key)
        if current is entry:
            del self._pool[entry.key]

    def _entry_for(self, key: tuple[NodeAddress, int]) -> _PooledConnection:
        entry = self._pool.pop(key, None)
        if entry is None:
            entry = _PooledConnection(self, key)
            self._evict_lru_idle()
        self._pool[key] = entry  # (re-)append: most recently used last
        return entry

    def _note_idle(self, entry: _PooledConnection, deadline: float) -> None:
        """Index an entry that just went idle by its expiry deadline."""
        self._idle_seq += 1
        heapq.heappush(
            self._idle_heap, (deadline, self._idle_seq, entry, entry.idle_gen)
        )

    def _evict_lru_idle(self) -> None:
        if len(self._pool) < POOL_DESTINATIONS:
            return
        while self._idle_heap:
            _deadline, _seq, entry, gen = heapq.heappop(self._idle_heap)
            if gen != entry.idle_gen or entry.dead or not entry.idle:
                continue  # stale record: the entry got busy again or died
            if self._pool.get(entry.key) is not entry:
                continue
            del self._pool[entry.key]
            self.pooled_evictions += 1
            entry.abort(TransportError("pooled connection LRU-evicted"))
            return

    def open_connections(self) -> list["_PooledConnection"]:
        """Pool entries whose transport connection is still live (or still
        being established).  A quiesced client — nothing in flight, idle
        timers allowed to run — must report none; the testkit's pool-leak
        oracle asserts exactly that after shutdown."""
        return [
            entry
            for entry in self._pool.values()
            if not entry.dead
            and (
                entry.connecting
                or entry.inflight
                or entry.queue
                or (
                    entry.conn is not None
                    and entry.conn.state != Connection.CLOSED
                )
            )
        ]

    def close(self) -> None:
        """Abort every pooled connection immediately (final teardown, not
        quiesce: pending exchanges fail with :class:`TransportError`)."""
        for key in list(self._pool):
            entry = self._pool.pop(key, None)
            if entry is not None:
                entry.abort(TransportError("HTTP client closed"))

    # -- requests ------------------------------------------------------------

    def request(
        self,
        dst: NodeAddress,
        port: int,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> SimFuture:
        """Returns a future resolving to :class:`HttpResponse` (any status);
        transport failures resolve to :class:`TransportError`."""
        self.requests_sent += 1
        tracer = self.obs.tracer
        span = NULL_SPAN
        if tracer.enabled and tracer.current() is not None:
            # Transport spans join the ambient trace only — an untraced
            # request (heartbeat, poll) must not start a root trace.
            span = tracer.start_span(
                f"http.exchange {method} {path}", island=self.label, kind="transport"
            )
        if span.recording:

            def finish_span(done: SimFuture) -> None:
                if done.exception() is None:
                    span.set_attribute("status", done.result().status)
                span.finish(done.exception())

        headers = dict(headers or {})
        if not self.config.modern:
            request = HttpRequest(method=method, path=path, headers=headers, body=body)
            result = self._oneshot(dst, port, request, span)
            if span.recording:
                result.add_done_callback(finish_span)
            return result
        request = HttpRequest(
            method=method, path=path, headers=headers, body=body, version="HTTP/1.1"
        )
        future: SimFuture = SimFuture()
        self.pooled_exchanges += 1
        entry = self._entry_for((dst, port))
        reused = entry.conn is not None and entry.conn.state == Connection.ESTABLISHED
        if reused:
            self.pool_hits += 1
        else:
            self.pool_misses += 1
        if span.recording:
            span.set_attribute("pool", "reused" if reused else "fresh")
            future.add_done_callback(finish_span)
        entry.enqueue(request, future)
        return future.within(self.stack.sim, EXCHANGE_TIMEOUT, entry.give_up)

    def _oneshot(
        self, dst: NodeAddress, port: int, request: HttpRequest, span=NULL_SPAN
    ) -> SimFuture:
        """The legacy path: open, exchange once, close."""
        exchange = _Oneshot(self, dst, port, request)
        if span.recording:
            exchange.connect_span = self.obs.tracer.start_span(
                "http.connect", island=self.label, kind="transport", parent=span
            )
        # The watchdog is armed before the connect, as the event order of
        # every recorded run expects.
        exchange.watchdog = self.stack.sim.deadline(EXCHANGE_TIMEOUT, exchange.give_up)
        self.stack.connect(dst, port).add_done_callback(exchange.connected)
        return exchange.future

    def _record_reap(self, mode: str, dst: NodeAddress, port: int) -> None:
        if self.flight is not None:
            self.flight.record(
                "watchdog_reap", mode=mode, dst=str(dst), port=port,
                timeout=EXCHANGE_TIMEOUT,
            )
            self.flight.trigger("watchdog-reap")

    def get(self, dst: NodeAddress, port: int, path: str) -> SimFuture:
        return self.request(dst, port, "GET", path)

    def post(
        self,
        dst: NodeAddress,
        port: int,
        path: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> SimFuture:
        return self.request(dst, port, "POST", path, body=body, headers=headers)


class _Oneshot:
    """One legacy exchange (:meth:`HttpClient._oneshot`): its connection,
    its reader, the future it settles and that future's watchdog, as a
    record with the connection's callbacks as methods.  The connection
    holds the record only until it closes, when it lets go of its
    handlers, so the pair is freed by reference counting."""

    __slots__ = (
        "client", "dst", "port", "request", "future", "watchdog", "conn",
        "assembler", "connect_span",
    )

    def __init__(
        self, client: "HttpClient", dst: NodeAddress, port: int, request: HttpRequest
    ) -> None:
        self.client = client
        self.dst = dst
        self.port = port
        self.request = request
        self.future = SimFuture()
        #: Fails the exchange after :data:`EXCHANGE_TIMEOUT`.
        self.watchdog: Event | None = None
        self.conn: Connection | None = None
        self.assembler = _MessageAssembler()
        self.connect_span = NULL_SPAN

    def settle(self, value: HttpResponse | None, exc: BaseException | None) -> None:
        """Resolve the exchange once, and disarm its watchdog."""
        if self.future.done():
            return
        watchdog, self.watchdog = self.watchdog, None
        if watchdog is not None:
            watchdog.cancel()
        if exc is None:
            self.future.set_result(value)
        else:
            self.future.set_exception(exc)

    def connected(self, conn_future: SimFuture) -> None:
        exc = conn_future.exception()
        if self.connect_span.recording:
            self.connect_span.finish(exc)
        if exc is not None:
            self.settle(None, exc)
            return
        conn: Connection = conn_future.result()
        self.conn = conn
        conn.set_receiver(self.on_data)
        conn.on_close(self.on_closed)
        conn.send(self.request.to_bytes())

    def on_data(self, connection: Connection, data: bytes) -> None:
        try:
            complete = self.assembler.feed(data)
            if complete is None:
                return
            response = _build_response(*complete)
        except ProtocolError as exc:
            self.settle(None, exc)
            connection.close()
            return
        connection.close()
        self.settle(response, None)

    def on_closed(self, connection: Connection) -> None:
        self.settle(None, TransportError("connection closed mid-response"))

    def give_up(self) -> None:
        """The watchdog fired: fail the exchange and close its connection."""
        self.watchdog = None
        self.settle(
            None,
            TransportError(
                f"HTTP exchange with {self.dst}:{self.port} timed out after "
                f"{EXCHANGE_TIMEOUT:g}s"
            ),
        )
        conn = self.conn
        if conn is not None and conn.state != Connection.CLOSED:
            conn.close()
        self.client._record_reap("oneshot", self.dst, self.port)
