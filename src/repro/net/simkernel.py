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

:meth:`Simulator.at` is the one way an ordinary callback gets onto the
heap: ``schedule``, ``call_soon`` and every segment delivery go through
it.  The one exception is the *deadline lane*.  Timeouts are armed on
almost every call and almost never fire, so :meth:`Simulator.deadline`
keeps them off the heap: one FIFO lane per delay value.  All entries of a
lane share one delay and are armed at a nondecreasing ``now``, so their
expiries are already in ``(time, seq)`` order and a deque holds them.  The
heap holds only each lane's head, pushed with the ``seq`` it got when
armed, so every event fires in exactly the order it would have fired had
it been scheduled with ``at``.  Cancelling a lane entry only sets its
flag: when a dead head pops, the lane pushes its next live entry.
:meth:`SimFuture.within` builds a future's timeout on a lane.
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
#: Deadline lanes kept while empty, so that a lane that drains and fills
#: again is not rebuilt each time; past this many lanes, a lane that
#: drains is dropped (a computed delay must not leave one behind forever).
_KEPT_LANES = 16


def _never_fired() -> None:
    """The callback a cancelled :class:`Event` holds."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule` so the
    caller can cancel it (e.g. a retransmission timer)."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    #: The deadline lane holding this event; None for a heap event.
    lane: "_Lane | None" = None

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
            lane = self.lane
            if lane is None:
                sim._note_cancelled()
            else:
                sim._lane_live -= 1
                # Dead entries leave the lane's tail at once; its head is
                # on the heap and leaves when it pops.
                while len(lane) > 1 and lane[-1].cancelled:
                    lane.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {self.callback!r} {state}>"


class _Lane(deque):
    """The armed entries of one deadline delay, in firing order."""

    __slots__ = ("delay",)


class _LaneEvent(Event):
    """An :class:`Event` armed by :meth:`Simulator.deadline`."""

    __slots__ = ("lane",)


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
        #: None, the one callback, or a list of two or more in order.
        self._callbacks: Any = None

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
        if self._done:
            raise SimulationError("SimFuture resolved twice")
        self._done = True
        self._result = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if callbacks.__class__ is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError("SimFuture resolved twice")
        self._done = True
        self._exception = exc
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if callbacks.__class__ is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def add_done_callback(self, fn: Callable[["SimFuture"], None]) -> None:
        if self._done:
            fn(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = fn
        elif callbacks.__class__ is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]

    def _resolve(self, value: Any, exc: BaseException | None) -> None:
        """Settle with ``value`` or, when ``exc`` is not None, with ``exc``."""
        if exc is None:
            self.set_result(value)
        else:
            self.set_exception(exc)

    def within(
        self, sim: "Simulator", delay: float, make_exc: Callable[[], BaseException]
    ) -> "SimFuture":
        """A future that settles as this one does, unless ``delay`` virtual
        seconds pass first: it then fails with ``make_exc()``, and a later
        outcome of this future is ignored.  The timeout is a deadline-lane
        entry (:meth:`Simulator.deadline`), cancelled when this future
        settles in time.  ``make_exc`` may settle this future itself (a
        watchdog that reaps its exchange fails it with the reason); the
        returned future then follows it and the exception ``make_exc``
        returns is dropped.  A ``delay`` of 0 disables the timeout and
        returns this future itself."""
        if not delay:
            return self
        derived = SimFuture()
        timer = sim.deadline(delay, _expire, derived, make_exc)
        self.add_done_callback(partial(_follow, derived, timer))
        return derived

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


def _follow(derived: SimFuture, timer: Event, source: SimFuture) -> None:
    """:meth:`SimFuture.within`: the source settled before the timeout."""
    if not derived._done:
        timer.cancel()
        derived._resolve(source._result, source._exception)


def _expire(derived: SimFuture, make_exc: Callable[[], BaseException]) -> None:
    """:meth:`SimFuture.within`: the timeout passed first."""
    exc = make_exc()
    if not derived._done:
        derived.set_exception(exc)


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
        #: Current virtual time in seconds.
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        #: Cancelled heap events still in ``_heap`` (dead lane heads are
        #: not counted: compaction keeps them, see :meth:`_compact`).
        self._cancelled = 0
        self._seq = 0
        self._running = False
        self._microtasks: deque[tuple[Callable[..., Any], tuple]] = deque()
        #: Deadline lanes: delay -> its armed entries in firing order.  The
        #: head of each non-empty lane is in ``_heap``.
        self._lanes: dict[float, _Lane] = {}
        #: Non-empty lanes, i.e. lane heads in ``_heap``.
        self._lane_heads = 0
        #: Lane entries neither fired nor cancelled.
        self._lane_live = 0

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued, lanes included."""
        return len(self._heap) - self._cancelled - self._lane_heads + self._lane_live

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if not self.now <= time < math.inf:
            if not math.isfinite(time):
                raise SimulationError(f"cannot schedule at non-finite time {time!r}")
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq = self._seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` at the current instant, after events
        already queued for this instant."""
        return self.at(self.now, callback, *args)

    def deadline(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` virtual seconds, at the
        same ``(time, seq)`` as :meth:`schedule` would, from ``delay``'s
        deadline lane (see the module docstring).  For timeouts that are
        usually cancelled."""
        time = self.now + delay
        if not (delay >= 0 and time < math.inf):
            raise SimulationError(f"bad deadline delay {delay!r}")
        seq = self._seq = self._seq + 1
        event = _LaneEvent(time, seq, callback, args, self)
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = _Lane()
            lane.delay = delay
        if not lane:
            heapq.heappush(self._heap, (time, seq, event))
            self._lane_heads += 1
        event.lane = lane
        lane.append(event)
        self._lane_live += 1
        return event

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
        """Count one more dead heap event; compact once they outnumber the
        live entries by more than ``_COMPACT_FLOOR``."""
        self._cancelled += 1
        if 2 * self._cancelled > len(self._heap) + _COMPACT_FLOOR:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled heap events and re-heapify, in place so that a
        loop holding a reference to the heap keeps seeing the live one.
        Lane heads stay, dead or not: their lane advances when they pop."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap if not entry[2].cancelled or entry[2].lane is not None
        ]
        heapq.heapify(heap)
        self._cancelled = 0

    def _advance_lane(self, lane: _Lane) -> None:
        """The head of ``lane`` left the heap: push its next live entry.
        A lane left empty stays for reuse unless there are more than
        ``_KEPT_LANES``."""
        lane.popleft()
        while lane:
            head = lane[0]
            if not head.cancelled:
                heapq.heappush(self._heap, (head.time, head.seq, head))
                return
            lane.popleft()
        self._lane_heads -= 1
        if len(self._lanes) > _KEPT_LANES:
            del self._lanes[lane.delay]

    def _pop_dead(self, event: Event) -> None:
        """``event`` left the heap cancelled."""
        lane = event.lane
        if lane is None:
            self._cancelled -= 1
        else:
            self._advance_lane(lane)

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
                self._pop_dead(event)
                continue
            event._sim = None
            self.now = time
            lane = event.lane
            if lane is not None:
                self._lane_live -= 1
                self._advance_lane(lane)
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
                    lane = event.lane
                    if lane is None:
                        self._cancelled -= 1
                    else:
                        self._advance_lane(lane)
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                event._sim = None
                self.now = time
                lane = event.lane
                if lane is not None:
                    self._lane_live -= 1
                    self._advance_lane(lane)
                event.callback(*event.args)
                if microtasks:
                    self._drain_microtasks()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Advance the simulation ``duration`` virtual seconds."""
        self.run(until=self.now + duration)

    def run_until_complete(self, future: SimFuture, timeout: float | None = None) -> Any:
        """Drive the simulation until ``future`` resolves, then return its
        result (or raise its exception).

        ``timeout`` is a virtual-time bound; exceeding it raises
        :class:`repro.errors.TimeoutError`.
        """
        deadline = None if timeout is None else self.now + timeout
        while not future.done():
            if self._microtasks:
                self._drain_microtasks()
                continue
            if self._heap:
                next_time, _, event = self._heap[0]
                if event.cancelled:
                    # A dead head says nothing about when the next live
                    # event falls due: drop it before judging the timeout.
                    heapq.heappop(self._heap)
                    self._pop_dead(event)
                    continue
                if deadline is not None and next_time > deadline:
                    self.now = deadline
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
