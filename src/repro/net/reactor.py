"""Per-node readiness engine: the reactor core of the transport rewrite.

Pre-reactor, the transport was connection-object-per-exchange: every
``Connection.send`` pushed its MTU segments onto the wire immediately and
every held exchange was a parked :class:`~repro.net.simkernel.SimFuture`
nobody tracked.  The reactor replaces that substrate with a single
per-node engine built on two primitives:

**Readiness cycles (write interest).**  Connections that opted into the
vectored fast path do not transmit from ``send``; they register *write
interest* by queueing their frames here.  The reactor schedules one flush
per virtual instant (``sim.call_soon``), and the flush — one *readiness
cycle* — walks every connection with pending frames and performs a
**vectored write**: all frames queued by one connection in the cycle
coalesce into a single segment transmission (a ``tcpv`` frame of
length-prefixed sub-frames, like ``writev`` feeding a NIC with
segmentation offload).  A cycle that finds a single pending frame emits
it byte-identically to the immediate path, so coalescing never changes
the wire unless it actually merges something.  Legacy connections never
register interest and keep the exact pre-reactor transmit path.

**Continuations (parked exchanges).**  Anything that used to park a bare
SimFuture across virtual time — a held push-channel exchange, an async
server response slot — now parks a :class:`Continuation` keyed by its
owner (a connection, a listener, a server).  Cancelling a key fails every
parked continuation under it through its ``on_cancel`` hook, so closing a
listener or tearing down a node cannot leak parked state; the testkit's
pool-leak and span-hygiene oracles rely on exactly this.

Everything is deterministic: cycles fire in scheduling order, connections
flush in registration order, and the counters in :attr:`Reactor.COUNTERS`
are byte-identical across identical runs (each gateway's registry tracks
them as ``reactor.<island>.*``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.transport import Connection, TransportStack

#: Ceiling on one vectored transmission's payload (sum of sub-frames,
#: excluding the per-sub-frame length prefixes).  Mirrors a 64 KiB TSO
#: window: the reactor splits longer bursts into several vectored frames.
VECTOR_MAX_PAYLOAD = 65535


class Continuation:
    """One parked exchange registered with a reactor.

    ``finish()`` retires it normally; ``cancel()`` retires it through the
    ``on_cancel`` hook (exactly once, whichever comes first).
    """

    __slots__ = ("key", "_on_cancel", "done", "cancelled")

    def __init__(self, key: Any, on_cancel: Callable[[], None] | None) -> None:
        self.key = key
        self._on_cancel = on_cancel
        self.done = False
        self.cancelled = False

    def finish(self) -> None:
        """Normal retirement: the parked exchange completed."""
        self.done = True
        self._on_cancel = None

    def cancel(self) -> None:
        """Forced retirement: run the ``on_cancel`` hook if still parked."""
        if self.done:
            return
        self.done = True
        self.cancelled = True
        hook, self._on_cancel = self._on_cancel, None
        if hook is not None:
            hook()


class Reactor:
    """Single event-loop readiness engine for one node's transport stack."""

    #: The monotonic counter attributes (``parked`` is a live level).
    COUNTERS = (
        "cycles",
        "flushes",
        "vector_frames",
        "frames_coalesced",
        "continuations_parked",
        "continuations_cancelled",
    )

    def __init__(self, stack: "TransportStack") -> None:
        self.stack = stack
        self.sim = stack.sim
        #: Connections with pending frames, in registration order.
        self._writable: list[Connection] = []
        self._cycle_scheduled = False
        #: key -> parked continuations under it (insertion order).
        self._continuations: dict[Any, list[Continuation]] = {}
        # -- deterministic counters (see COUNTERS) --
        self.cycles = 0
        self.flushes = 0
        self.vector_frames = 0
        self.frames_coalesced = 0
        self.continuations_parked = 0
        self.continuations_cancelled = 0

    # -- write interest ------------------------------------------------------

    def register_writable(self, conn: "Connection") -> None:
        """Note that ``conn`` has frames queued; schedules a readiness
        cycle for the current instant if one is not already pending."""
        if not conn._tx_pending:
            self._writable.append(conn)
        if not self._cycle_scheduled:
            self._cycle_scheduled = True
            self.sim.call_soon(self._run_cycle)

    def _run_cycle(self) -> None:
        """One readiness cycle: flush every writable connection."""
        self._cycle_scheduled = False
        writable, self._writable = self._writable, []
        if not writable:
            return
        self.cycles += 1
        for conn in writable:
            frames = conn._take_tx()
            if not frames:
                continue
            self.flushes += 1
            try:
                route = conn._route or conn._resolve_route()
                if len(frames) == 1:
                    # Nothing to coalesce: byte-identical to the
                    # immediate (pre-reactor) transmit path.
                    self.stack.send_routed(route, frames[0][0], frames[0][1])
                else:
                    for batch in self._split(frames):
                        if len(batch) == 1:
                            self.stack.send_routed(route, batch[0][0], batch[0][1])
                        else:
                            self.frames_coalesced += len(batch)
                            self.vector_frames += 1
                            self.stack.send_vectored(route, batch)
            except Exception:
                # The path died under the queued frames (interface down,
                # unroutable peer).  Tear the connection down off-cycle so
                # the flush loop state stays consistent; the connection's
                # on_close handlers fail anything pending above it.
                self.sim.post(conn.abort)

    @staticmethod
    def _split(
        frames: list[tuple[str, bytes]]
    ) -> list[list[tuple[str, bytes]]]:
        """Split a burst into vectored batches of ≤ VECTOR_MAX_PAYLOAD."""
        batches: list[list[tuple[str, bytes]]] = []
        current: list[tuple[str, bytes]] = []
        size = 0
        for frame in frames:
            length = len(frame[1])
            if current and size + length > VECTOR_MAX_PAYLOAD:
                batches.append(current)
                current, size = [], 0
            current.append(frame)
            size += length
        if current:
            batches.append(current)
        return batches

    # -- continuations -------------------------------------------------------

    def park(self, key: Any, on_cancel: Callable[[], None] | None = None) -> Continuation:
        """Park a continuation under ``key`` (a connection, listener or
        server object).  ``on_cancel`` runs if the key is cancelled before
        the continuation finishes."""
        continuation = Continuation(key, on_cancel)
        self._continuations.setdefault(key, []).append(continuation)
        self.continuations_parked += 1
        return continuation

    def cancel_key(self, key: Any) -> int:
        """Cancel every continuation parked under ``key``; returns how
        many were still live."""
        parked = self._continuations.pop(key, None)
        if not parked:
            return 0
        cancelled = 0
        for continuation in parked:
            if not continuation.done:
                continuation.cancel()
                cancelled += 1
        self.continuations_cancelled += cancelled
        return cancelled

    def cancel_all(self) -> int:
        """Cancel everything parked (node teardown); returns the count."""
        total = 0
        for key in list(self._continuations):
            total += self.cancel_key(key)
        return total

    @property
    def parked(self) -> int:
        """Live (not yet finished or cancelled) continuations — the
        no-leaked-continuations oracle asserts this is 0 after shutdown."""
        self._compact()
        return sum(len(parked) for parked in self._continuations.values())

    def _compact(self) -> None:
        """Drop retired continuations so parked counts stay exact."""
        for key in list(self._continuations):
            live = [c for c in self._continuations[key] if not c.done]
            if live:
                self._continuations[key] = live
            else:
                del self._continuations[key]

    # -- observability -------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Reactor {self.stack.node.name} cycles={self.cycles} "
            f"parked={self.parked}>"
        )
