"""Deterministic discrete-event simulation kernel.

The whole reproduction is single-threaded: protocol stacks, middleware and
applications are callbacks scheduled on one :class:`Simulator`.  Virtual time
is a float in seconds.  Events scheduled for the same instant fire in
scheduling order (FIFO), which makes every run bit-for-bit reproducible.

Two waiting styles are supported:

- callback style, used inside protocol stacks (``schedule`` / ``at``);
- future style, used by application-level code: an operation returns a
  :class:`SimFuture` and the caller blocks the *simulation* (not the Python
  thread) with :meth:`Simulator.run_until_complete`.

A third, cheaper primitive backs the reactor transport
(:mod:`repro.net.reactor`): :meth:`Simulator.post` enqueues a *microtask*
— a callback that runs at the current instant, after the event callback
that posted it returns and before the next heap event fires.  Microtasks
never touch the heap (no ``heapq`` push/pop, no :class:`Event`
allocation), drain in FIFO order, and cannot advance virtual time, which
makes them the right tool for same-instant follow-up work such as
deferred connection teardown from inside a readiness cycle.

The heap holds ``(time, seq, event)`` tuples.  ``seq`` is a per-simulator
counter, so entries order by ``(time, seq)`` — earliest first, FIFO within
an instant — and the tuple comparison never reaches the :class:`Event`
itself.  The :class:`Event` is the caller's handle: cancelling it marks
the entry dead in place (lazy deletion), and the simulator counts the dead
entries still queued.  Whenever a cancellation leaves more dead entries
than live ones plus ``_COMPACT_FLOOR``, the heap is rebuilt in place from
its live entries alone, so right after any cancellation
``len(heap) <= 2 * live + _COMPACT_FLOOR``.  Dropping dead entries cannot
reorder the live ones, whose ``(time, seq)`` keys are unique.

Times must be finite: :meth:`Simulator.at` and :meth:`Simulator.schedule`
reject NaN and ±inf with :class:`~repro.errors.SimulationError`, as they
reject a time in the past.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from functools import partial
from typing import Any, Callable, Iterable

from repro.errors import SimulationError, TimeoutError


#: Dead heap entries tolerated beyond the live count before the heap is
#: compacted; keeps small heaps from being rebuilt on every cancellation.
_COMPACT_FLOOR = 64


def _never_fired() -> None:
    """The callback a cancelled :class:`Event` holds."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule` so the
    caller can cancel it (e.g. a retransmission timer)."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: "Simulator",
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The simulator whose heap holds this event; cleared once the
        #: event fires or is cancelled, so only the first cancellation of
        #: a queued event is counted.
        self._sim: Simulator | None = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call more than once and
        after the event has already fired (then it is a no-op).  The
        callback and its arguments are released at once, not when the dead
        entry leaves the heap (a watchdog's closure can hold a whole
        exchange)."""
        self.cancelled = True
        self.callback = _never_fired
        self.args = ()
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {self.callback!r} {state}>"


class SimFuture:
    """Single-assignment result container resolved inside the simulation.

    Mirrors the small useful subset of ``concurrent.futures.Future``:
    ``done`` / ``result`` / ``set_result`` / ``set_exception`` plus
    ``add_done_callback`` (called synchronously at resolution time).
    """

    __slots__ = ("_done", "_result", "_exception", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise SimulationError("SimFuture result read before resolution")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> BaseException | None:
        if not self._done:
            raise SimulationError("SimFuture exception read before resolution")
        return self._exception

    def set_result(self, value: Any) -> None:
        self._resolve(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._resolve(None, exc)

    def add_done_callback(self, fn: Callable[["SimFuture"], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _resolve(self, value: Any, exc: BaseException | None) -> None:
        if self._done:
            raise SimulationError("SimFuture resolved twice")
        self._done = True
        self._result = value
        self._exception = exc
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    # -- combinators ---------------------------------------------------------
    #
    # Each registers one done-callback on its source and resolves its
    # target synchronously inside it, so chaining adds no event, microtask
    # or virtual time.

    def then(self, fn: Callable[[Any], Any]) -> "SimFuture":
        """A future for ``fn(result)``.  A failure of this future passes
        through unchanged and ``fn`` is not called; an ``Exception`` raised
        by ``fn`` fails the derived future.  Only the ``fn`` call is
        guarded: an error raised by the derived future's own callbacks
        propagates to whoever resolved this one."""
        derived = SimFuture()

        def chain(source: SimFuture) -> None:
            exc = source._exception
            value = None
            if exc is None:
                try:
                    value = fn(source._result)
                except Exception as error:  # noqa: BLE001 - becomes the outcome
                    exc = error
            derived._resolve(value, exc)

        self.add_done_callback(chain)
        return derived

    def relay(self, target: "SimFuture") -> "SimFuture":
        """Settle ``target`` exactly as this future settles; returns
        ``target``, so ``source.relay(SimFuture())`` is a fresh future that
        follows ``source`` without sharing its callback list."""
        self.add_done_callback(lambda source: target._resolve(source._result, source._exception))
        return target

    @staticmethod
    def all_of(futures: list["SimFuture"]) -> "SimFuture":
        """Resolve to the list of results, in input order, once every future
        succeeds; fail with the first failure to arrive (later outcomes are
        dropped).  No futures resolve to ``[]`` at once."""
        result = SimFuture()
        if not futures:
            result.set_result([])
            return result
        remaining = len(futures)
        values: list[Any] = [None] * len(futures)

        def settle(index: int, future: SimFuture) -> None:
            nonlocal remaining
            if result._done:
                return
            exc = future._exception
            if exc is not None:
                result._resolve(None, exc)
                return
            values[index] = future._result
            remaining -= 1
            if remaining == 0:
                result._resolve(values, None)

        for index, future in enumerate(futures):
            future.add_done_callback(partial(settle, index))
        return result

    @staticmethod
    def completed(value: Any) -> "SimFuture":
        """A future that is already resolved with ``value``."""
        future = SimFuture()
        future.set_result(value)
        return future

    @staticmethod
    def failed(exc: BaseException) -> "SimFuture":
        """A future that is already resolved with an exception."""
        future = SimFuture()
        future.set_exception(exc)
        return future


class Simulator:
    """Event loop with a virtual clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired, sim.now
    (['b', 'a'], 1.5)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        #: Cancelled entries still in ``_heap``.
        self._cancelled = 0
        self._seq = 0
        self._running = False
        self._microtasks: deque[tuple[Callable[..., Any], tuple]] = deque()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - self._cancelled

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self._now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if not self._now <= time < math.inf:
            if not math.isfinite(time):
                raise SimulationError(f"cannot schedule at non-finite time {time!r}")
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        seq = self._seq = self._seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` at the current instant, after events
        already queued for this instant."""
        return self.at(self._now, callback, *args)

    def post(self, callback: Callable[..., Any], *args: Any) -> None:
        """Enqueue a microtask: runs at the current instant, after the
        currently firing event callback returns and before the next heap
        event.  FIFO, non-cancellable, and heap-free — see the module
        docstring."""
        self._microtasks.append((callback, args))

    # -- execution ----------------------------------------------------------

    def _drain_microtasks(self) -> None:
        while self._microtasks:
            callback, args = self._microtasks.popleft()
            callback(*args)

    def _note_cancelled(self) -> None:
        """Count one more dead entry; compact once they outnumber the live
        entries by more than ``_COMPACT_FLOOR``."""
        self._cancelled += 1
        if 2 * self._cancelled > len(self._heap) + _COMPACT_FLOOR:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place so that a loop
        holding a reference to the heap keeps seeing the live one."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def step(self) -> bool:
        """Fire the next pending event (draining any posted microtasks
        first).  Returns False when nothing is pending (virtual time does
        not advance in that case)."""
        if self._microtasks:
            self._drain_microtasks()
            return True
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._sim = None
            self._now = time
            event.callback(*event.args)
            self._drain_microtasks()
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Fire events until the queue drains, or until virtual time would
        pass ``until`` (the clock then advances exactly to ``until``)."""
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        microtasks = self._microtasks
        try:
            self._drain_microtasks()
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                event._sim = None
                self._now = time
                event.callback(*event.args)
                if microtasks:
                    self._drain_microtasks()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Advance the simulation ``duration`` virtual seconds."""
        self.run(until=self._now + duration)

    def run_until_complete(self, future: SimFuture, timeout: float | None = None) -> Any:
        """Drive the simulation until ``future`` resolves, then return its
        result (or raise its exception).

        ``timeout`` is a virtual-time bound; exceeding it raises
        :class:`repro.errors.TimeoutError`.
        """
        deadline = None if timeout is None else self._now + timeout
        while not future.done():
            if self._microtasks:
                self._drain_microtasks()
                continue
            if self._heap:
                next_time = self._heap[0][0]
                if deadline is not None and next_time > deadline:
                    self._now = deadline
                    raise TimeoutError(
                        f"future unresolved after {timeout} virtual seconds"
                    )
                if not self.step():
                    break
            else:
                break
        if not future.done():
            raise SimulationError(
                "event queue drained but future never resolved (deadlock?)"
            )
        return future.result()

    def gather(self, futures: Iterable[SimFuture], timeout: float | None = None) -> list[Any]:
        """Run until every future resolves; return their results in order."""
        futures = list(futures)
        results: list[Any] = []
        for future in futures:
            results.append(self.run_until_complete(future, timeout=timeout))
        return results
