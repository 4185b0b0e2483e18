"""Stream meta-middleware — the paper's future work, implemented.

Section 6: "another Meta middleware should be developed for some critical
applications such as multimedia services ... novel CORBA-based middleware
which applies dynamic service activation, conversion of multimedia
streams ... And the middleware would be able to coexist with our
framework described in this paper."

This module is that second meta-middleware.  It coexists with the
call-oriented VSG framework (it reuses each island's gateway node and
transport stack, but runs its own TCP relay protocol on a separate port)
and does the one thing the VSG cannot: move continuous media between
islands.

What it deliberately does *not* fix: physics.  A DV stream is 28.8 Mb/s;
the backbone is 10 Mb/s Ethernet.  Relaying therefore performs the
"conversion of multimedia streams" the paper anticipates — a source
format is transcoded down to the best format that fits the bottleneck
(DV → MPEG2 → AUDIO), and the delivered quality is part of the result the
A3 ablation reports.  Forcing an unfittable format is allowed and
measurably collapses (unbounded queueing), reproducing *why* conversion
is mandatory.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.errors import FrameworkError, StreamNotBridgeableError
from repro.net.simkernel import Event, SimFuture
from repro.net.transport import Connection, TransportStack
from repro.havi.streams import FORMAT_BANDWIDTH

STREAM_RELAY_PORT = 9500
_TICK = 0.25
_HEADER = struct.Struct("!I")  # chunk length

#: Formats ordered by descending quality; transcoding walks down this list.
FORMAT_LADDER = ("DV", "MPEG2", "AUDIO")


def fit_format(requested: str, bottleneck_bps: float) -> str:
    """The best format at or below ``requested`` that fits the bottleneck
    (with 20% headroom left for the rest of the home's traffic)."""
    if requested not in FORMAT_BANDWIDTH:
        raise FrameworkError(f"unknown stream format {requested!r}")
    usable = bottleneck_bps * 0.8
    start = FORMAT_LADDER.index(requested)
    for candidate in FORMAT_LADDER[start:]:
        if FORMAT_BANDWIDTH[candidate] <= usable:
            return candidate
    raise StreamNotBridgeableError(
        f"no format at or below {requested!r} fits a "
        f"{bottleneck_bps / 1e6:.0f} Mb/s bottleneck"
    )


class StreamSink:
    """Anything that accepts relayed stream bytes.

    HAVi FCMs already have ``on_stream_data``; :meth:`wrap_fcm` adapts
    them.  Arbitrary callables work too.
    """

    def __init__(self, deliver: Callable[[int], None]) -> None:
        self._deliver = deliver
        self.bytes_received = 0
        self.first_byte_at: float | None = None

    def deliver(self, now: float, nbytes: int) -> None:
        if self.first_byte_at is None:
            self.first_byte_at = now
        self.bytes_received += nbytes
        self._deliver(nbytes)

    @staticmethod
    def wrap_fcm(fcm: Any) -> "StreamSink":
        return StreamSink(lambda nbytes: fcm.on_stream_data(None, nbytes))

    @staticmethod
    def counter() -> "StreamSink":
        return StreamSink(lambda nbytes: None)


class RelayedStream:
    """One live relayed stream (source side owns the pump)."""

    def __init__(
        self,
        meta: "StreamMetaMiddleware",
        stream_id: int,
        source_island: str,
        sink_island: str,
        requested_format: str,
        delivered_format: str,
        connection: Connection,
        opened_at: float,
    ) -> None:
        self.meta = meta
        self.stream_id = stream_id
        self.source_island = source_island
        self.sink_island = sink_island
        self.requested_format = requested_format
        self.delivered_format = delivered_format
        self.connection = connection
        self.opened_at = opened_at
        #: Virtual instant of :meth:`close` (``None`` while open).
        self.closed_at: float | None = None
        self.bytes_sent = 0
        self._pump_event: Event | None = None
        self._start_pump()

    @property
    def transcoded(self) -> bool:
        return self.delivered_format != self.requested_format

    @property
    def bandwidth_bps(self) -> int:
        return FORMAT_BANDWIDTH[self.delivered_format]

    @property
    def offered_bps(self) -> float:
        """Bits sent per second of the open interval (a closed stream's
        rate stops at its close instant)."""
        end = self.meta.sim.now if self.closed_at is None else self.closed_at
        return self.bytes_sent * 8 / max(1e-9, end - self.opened_at)

    def _start_pump(self) -> None:
        self._pump_event = self.meta.sim.schedule(_TICK, self._pump)

    def _pump(self) -> None:
        if self.closed_at is not None:
            return
        if self.connection.state != Connection.ESTABLISHED:
            self.close()
            return
        nbytes = int(self.bandwidth_bps / 8 * _TICK)
        chunk = _HEADER.pack(nbytes)
        # Chunk header + synthetic payload; payload bytes are generated,
        # not stored, so we send a small header plus a sized filler.
        self.connection.send(chunk + b"\x00" * nbytes)
        self.bytes_sent += nbytes
        self._pump_event = self.meta.sim.schedule(_TICK, self._pump)

    def close(self) -> None:
        if self.closed_at is not None:
            return
        self.closed_at = self.meta.sim.now
        if self._pump_event is not None:
            self._pump_event.cancel()
        self.connection.close()
        self.meta._forget(self)


class StreamMetaMiddleware:
    """The second meta-middleware: stream relays between islands.

    ``attach(island)`` starts a relay receiver on that island's gateway;
    ``relay(...)`` opens a source-paced stream to a sink on another
    island.  Coexistence with the VSG framework is by construction: both
    use the same gateway nodes, different ports and protocols.
    """

    def __init__(self, mm) -> None:
        self.mm = mm
        self.sim = mm.sim
        self._receivers: dict[str, "_Receiver"] = {}
        self._streams: list[RelayedStream] = []
        self._next_stream_id = 1

    # -- wiring ------------------------------------------------------------

    def attach(self, island_name: str) -> None:
        """Enable stream relaying on one island's gateway."""
        if island_name in self._receivers:
            return
        island = self.mm.island(island_name)
        self._receivers[island_name] = _Receiver(self, island_name, island.stack)

    def register_sink(self, island_name: str, name: str, sink: StreamSink) -> None:
        """Expose a named sink on an island (e.g. a display FCM)."""
        receiver = self._receivers.get(island_name)
        if receiver is None:
            raise FrameworkError(f"island {island_name!r} has no stream receiver attached")
        receiver.sinks[name] = sink

    # -- opening streams ------------------------------------------------------

    def relay(
        self,
        source_island: str,
        sink_island: str,
        sink_name: str,
        fmt: str = "DV",
        force_format: bool = False,
    ) -> SimFuture:
        """Open a relayed stream; resolves to a :class:`RelayedStream`.

        Unless ``force_format`` is set, the stream is transcoded down to
        the best format the backbone can carry (the paper's "conversion of
        multimedia streams").
        """
        source = self.mm.island(source_island)
        sink_receiver = self._receivers.get(sink_island)
        if sink_island not in self._receivers:
            return SimFuture.failed(
                FrameworkError(f"island {sink_island!r} has no stream receiver attached")
            )
        if sink_name not in sink_receiver.sinks:
            return SimFuture.failed(
                FrameworkError(f"island {sink_island!r} exposes no sink {sink_name!r}")
            )
        backbone_bps = self.mm.backbone.bandwidth_bps
        delivered = fmt if force_format else fit_format(fmt, backbone_bps)

        result: SimFuture = SimFuture()
        dst_address = sink_receiver.stack.local_address(self.mm.backbone)

        def on_connected(future: SimFuture) -> None:
            exc = future.exception()
            if exc is not None:
                result.set_exception(exc)
                return
            connection: Connection = future.result()
            # First message names the sink.
            header = sink_name.encode("utf-8")
            connection.send(_HEADER.pack(len(header)) + header)
            stream = RelayedStream(
                self,
                self._next_stream_id,
                source_island,
                sink_island,
                fmt,
                delivered,
                connection,
                self.sim.now,
            )
            self._next_stream_id += 1
            self._streams.append(stream)
            result.set_result(stream)

        source.stack.connect(dst_address, STREAM_RELAY_PORT).add_done_callback(on_connected)
        return result

    def _forget(self, stream: RelayedStream) -> None:
        if stream in self._streams:
            self._streams.remove(stream)

    @property
    def active_streams(self) -> int:
        return len(self._streams)


class _Receiver:
    """Sink-side relay endpoint on one island's gateway."""

    def __init__(self, meta: StreamMetaMiddleware, island: str, stack: TransportStack) -> None:
        self.meta = meta
        self.island = island
        self.stack = stack
        self.sinks: dict[str, StreamSink] = {}
        self._listener = stack.listen(STREAM_RELAY_PORT, self._on_connection)

    def _on_connection(self, connection: Connection) -> None:
        state = {"buffer": b"", "sink": None}

        def on_data(_conn: Connection, data: bytes) -> None:
            state["buffer"] += data
            while True:
                buffer = state["buffer"]
                if len(buffer) < _HEADER.size:
                    return
                (length,) = _HEADER.unpack_from(buffer)
                if len(buffer) < _HEADER.size + length:
                    return
                chunk = buffer[_HEADER.size : _HEADER.size + length]
                state["buffer"] = buffer[_HEADER.size + length :]
                if state["sink"] is None:
                    # First frame: the sink name.
                    sink = self.sinks.get(chunk.decode("utf-8", errors="replace"))
                    if sink is None:
                        connection.close()
                        return
                    state["sink"] = sink
                else:
                    state["sink"].deliver(self.meta.sim.now, length)

        connection.set_receiver(on_data)
