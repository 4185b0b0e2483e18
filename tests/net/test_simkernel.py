"""Tests for the discrete-event kernel."""

import math
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError, TimeoutError
from repro.net import simkernel
from repro.net.simkernel import SimFuture, Simulator


def scanned_pending(sim):
    """``pending_events`` recomputed by a full scan of the heap and of
    every deadline lane (a lane head is counted in its lane)."""
    heap = sum(1 for _, _, event in sim._heap if not event.cancelled and event.lane is None)
    lanes = sum(1 for lane in sim._lanes.values() for event in lane if not event.cancelled)
    return heap + lanes


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "last")
        sim.run()
        assert fired == ["early", "late", "last"]
        assert sim.now == 3.0

    def test_same_instant_fires_fifo(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []
        # Cancelling twice is harmless.
        event.cancel()

    def test_callback_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_run_until_bound_advances_clock_exactly(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "future")
        sim.run(until=4.0)
        assert fired == []
        assert sim.now == 4.0
        sim.run_for(6.0)
        assert fired == ["future"]

    def test_call_soon_runs_after_queued_same_instant(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, "first")
        sim.call_soon(fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_pending_events_counts_only_live(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(1.0, lambda: None)
        cancelled.cancel()
        assert sim.pending_events == 1
        keep.cancel()
        assert sim.pending_events == 0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_firing_order_is_sorted_by_time(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, fired.append, delay)
        sim.run()
        assert fired == sorted(delays)


class TestNonFiniteTimes:
    """NaN and infinite times are rejected: a NaN compares false with
    everything, so once queued it fired first, set the clock to NaN and
    disabled the past-scheduling guard for the rest of the run."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_at_rejects_non_finite_time(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.at(bad, lambda: None)
        assert sim.pending_events == 0 and sim._heap == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_rejects_non_finite_delay(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        assert sim.pending_events == 0 and sim._heap == []

    def test_nan_neither_fires_first_nor_poisons_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), fired.append, "nan")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.0
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)


class TestCancellationEdges:
    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        event.cancel()  # already fired: must not raise or corrupt the queue
        sim.schedule(1.0, fired.append, "y")
        sim.run()
        assert fired == ["x", "y"]

    def test_cancel_twice_then_run(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        event.cancel()
        sim.schedule(2.0, fired.append, "y")
        sim.run()
        assert fired == ["y"]
        event.cancel()  # and again after the queue drained

    def test_cancel_releases_the_callback_and_its_arguments(self):
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        event = sim.schedule(30.0, lambda item: None, payload)
        held = weakref.ref(payload)
        del payload
        assert held() is not None  # the queued event keeps it alive
        event.cancel()
        assert held() is None  # released at cancel, though still in the heap
        assert sim.pending_events == 0
        sim.run()
        assert sim.now == 0.0

    def test_same_instant_fifo_survives_interleaved_cancellations(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(1.0, fired.append, tag) for tag in range(6)]
        events[1].cancel()
        events[4].cancel()
        sim.run()
        assert fired == [0, 2, 3, 5]


class TestTimeoutAbandonment:
    """What happens to the queue when ``run_until_complete`` times out.

    The contract: the clock lands exactly on the deadline and the
    would-have-resolved event stays queued.  A later ``run`` fires it at
    its original virtual time — the future late-resolves, it is not lost
    and nothing crashes — so consumers that keep a timed-out future
    around must expect a late resolution (``SimFuture.within``
    ignores one; this pins the kernel behaviour that
    makes that guard necessary).
    """

    def test_timeout_leaves_clock_exactly_at_deadline(self):
        sim = Simulator()
        future = SimFuture()
        sim.schedule(100.0, future.set_result, "late")
        with pytest.raises(TimeoutError):
            sim.run_until_complete(future, timeout=10.0)
        assert sim.now == 10.0
        assert not future.done()

    def test_abandoned_future_resolves_at_original_time_on_next_run(self):
        sim = Simulator()
        future = SimFuture()
        resolved_at = []
        future.add_done_callback(lambda f: resolved_at.append(sim.now))
        sim.schedule(100.0, future.set_result, "late")
        with pytest.raises(TimeoutError):
            sim.run_until_complete(future, timeout=10.0)
        sim.run()
        assert future.done()
        assert future.result() == "late"
        assert resolved_at == [100.0]

    @pytest.mark.parametrize("arm", ["schedule", "deadline"])
    def test_a_cancelled_head_does_not_hide_the_timeout(self, arm):
        sim = Simulator()
        future = SimFuture()
        getattr(sim, arm)(5.0, future.set_result, "cancelled").cancel()
        sim.schedule(100.0, future.set_result, "late")
        with pytest.raises(TimeoutError):
            sim.run_until_complete(future, timeout=10.0)
        assert sim.now == 10.0
        assert sim.pending_events == 1

    def test_events_scheduled_before_deadline_already_fired(self):
        sim = Simulator()
        future = SimFuture()
        fired = []
        sim.schedule(5.0, fired.append, "inside")
        sim.schedule(100.0, future.set_result, "late")
        with pytest.raises(TimeoutError):
            sim.run_until_complete(future, timeout=10.0)
        assert fired == ["inside"]


class TestSimFuture:
    def test_result_before_done_raises(self):
        future = SimFuture()
        with pytest.raises(SimulationError):
            future.result()

    def test_double_resolution_rejected(self):
        future = SimFuture()
        future.set_result(1)
        with pytest.raises(SimulationError):
            future.set_result(2)

    def test_callbacks_fire_on_resolution_and_late_add(self):
        future = SimFuture()
        seen = []
        future.add_done_callback(lambda f: seen.append(("early", f.result())))
        future.set_result(42)
        future.add_done_callback(lambda f: seen.append(("late", f.result())))
        assert seen == [("early", 42), ("late", 42)]

    def test_exception_propagates_through_result(self):
        future = SimFuture.failed(ValueError("boom"))
        assert isinstance(future.exception(), ValueError)
        with pytest.raises(ValueError):
            future.result()

    def test_run_until_complete_returns_value(self):
        sim = Simulator()
        future = SimFuture()
        sim.schedule(2.0, future.set_result, "done")
        assert sim.run_until_complete(future) == "done"
        assert sim.now == 2.0

    def test_run_until_complete_timeout(self):
        sim = Simulator()
        future = SimFuture()
        sim.schedule(100.0, future.set_result, "too late")
        with pytest.raises(TimeoutError):
            sim.run_until_complete(future, timeout=10.0)

    def test_run_until_complete_detects_deadlock(self):
        sim = Simulator()
        future = SimFuture()  # nothing will ever resolve it
        with pytest.raises(SimulationError):
            sim.run_until_complete(future)

    def test_gather_preserves_order(self):
        sim = Simulator()
        futures = [SimFuture() for _ in range(3)]
        sim.schedule(3.0, futures[0].set_result, "a")
        sim.schedule(1.0, futures[1].set_result, "b")
        sim.schedule(2.0, futures[2].set_result, "c")
        assert sim.gather(futures) == ["a", "b", "c"]



class TestCombinators:
    def test_then_maps_the_result(self):
        source = SimFuture()
        derived = source.then(lambda value: value * 2)
        assert not derived.done()
        source.set_result(21)
        assert derived.result() == 42

    def test_then_passes_a_failure_through_without_calling_fn(self):
        source = SimFuture()
        calls = []
        derived = source.then(calls.append)
        error = ValueError("boom")
        source.set_exception(error)
        assert calls == []
        assert derived.exception() is error

    def test_then_fails_the_derived_future_when_fn_raises(self):
        error = KeyError("missing")

        def fn(value):
            raise error

        derived = SimFuture.completed(1).then(fn)
        assert derived.exception() is error

    def test_then_lets_a_derived_callback_error_propagate(self):
        source = SimFuture()
        derived = source.then(lambda value: value + 1)

        def explode(future):
            raise RuntimeError("callback bug")

        derived.add_done_callback(explode)
        with pytest.raises(RuntimeError, match="callback bug"):
            source.set_result(1)
        # The error was not caught by then(): no second resolution.
        assert derived.result() == 2

    def test_then_on_a_settled_source_settles_at_once(self):
        assert SimFuture.completed(3).then(str).result() == "3"
        error = ValueError("early")
        assert SimFuture.failed(error).then(str).exception() is error

    def test_relay_copies_a_result(self):
        source, target = SimFuture(), SimFuture()
        assert source.relay(target) is target
        source.set_result("value")
        assert target.result() == "value"

    def test_relay_copies_an_exception(self):
        source, target = SimFuture(), SimFuture()
        source.relay(target)
        error = ValueError("boom")
        source.set_exception(error)
        assert target.exception() is error

    def test_all_of_keeps_input_order(self):
        futures = [SimFuture() for _ in range(3)]
        combined = SimFuture.all_of(futures)
        for index in (2, 0, 1):
            assert not combined.done()
            futures[index].set_result("abc"[index])
        assert combined.result() == ["a", "b", "c"]

    def test_all_of_fails_fast_and_ignores_later_outcomes(self):
        futures = [SimFuture() for _ in range(3)]
        combined = SimFuture.all_of(futures)
        first, second = ValueError("first"), ValueError("second")
        futures[1].set_exception(first)
        assert combined.exception() is first
        futures[0].set_exception(second)
        futures[2].set_result("late")
        assert combined.exception() is first

    def test_all_of_no_futures_is_an_empty_list(self):
        assert SimFuture.all_of([]).result() == []


class _Marked(Exception):
    """A failure the chain model can follow by identity."""


#: One link of a combinator chain: ``("add", k)`` maps with ``then``,
#: ``("raise",)`` is a ``then`` whose ``fn`` raises, ``("relay",)`` relays
#: into a fresh future.
LINKS = st.one_of(
    st.tuples(st.just("add"), st.integers(-5, 5)),
    st.tuples(st.just("raise")),
    st.tuples(st.just("relay")),
)
#: One chain: its source's outcome (a value, or None for a failure),
#: whether the source settles before the chain is built, and the links.
CHAINS = st.tuples(
    st.one_of(st.none(), st.integers(-5, 5)), st.booleans(), st.lists(LINKS, max_size=6)
)


def _reference(outcome, source_error, links, raised):
    """Evaluate a chain without futures: ``(value, error, fn calls)``.
    ``outcome`` None means the source fails with ``source_error``;
    ``raised[position]`` is what the ``raise`` link at ``position`` raises."""
    value, error, calls = outcome, source_error if outcome is None else None, 0
    for position, link in enumerate(links):
        if error is not None or link[0] == "relay":
            continue
        calls += 1
        if link[0] == "add":
            value += link[1]
        else:
            value, error = None, raised[position]
    return value, error, calls


def _settle(future, outcome, error):
    if outcome is None:
        future.set_exception(error)
    else:
        future.set_result(outcome)


class TestCombinatorModel:
    @settings(max_examples=200, deadline=None)
    @given(chains=st.lists(CHAINS, min_size=1, max_size=5), data=st.data())
    def test_chains_match_a_plain_evaluation(self, chains, data):
        """Random ``then``/``relay`` chains, their sources settled before
        or after the chain is built and in a random order, end where a
        plain evaluation says; ``all_of`` over them keeps input order or
        fails with the first failure to arrive."""
        calls = []
        raised = [
            {position: _Marked(index, position) for position in range(len(links))}
            for index, (_, _, links) in enumerate(chains)
        ]
        source_errors = [_Marked(index) for index in range(len(chains))]

        def build(index, future, links):
            for position, link in enumerate(links):
                if link[0] == "relay":
                    future = future.relay(SimFuture())
                    continue

                def fn(value, link=link, error=raised[index][position]):
                    calls.append(index)
                    if link[0] == "raise":
                        raise error
                    return value + link[1]

                future = future.then(fn)
            return future

        sources, ends = [], []
        for index, (outcome, early, links) in enumerate(chains):
            sources.append(SimFuture())
            if early:
                _settle(sources[index], outcome, source_errors[index])
            ends.append(build(index, sources[index], links))
        combined = SimFuture.all_of(ends)
        late = data.draw(st.permutations([i for i, chain in enumerate(chains) if not chain[1]]))
        for index in late:
            _settle(sources[index], chains[index][0], source_errors[index])

        # Already-settled chains reach all_of as it registers, in input order.
        arrival = [index for index, chain in enumerate(chains) if chain[1]] + list(late)
        first_error = None
        for index in arrival:
            outcome, _, links = chains[index]
            value, error, expected_calls = _reference(
                outcome, source_errors[index], links, raised[index]
            )
            assert calls.count(index) == expected_calls
            assert ends[index].exception() is error
            if error is None:
                assert ends[index].result() == value
            elif first_error is None:
                first_error = error
        if first_error is None:
            assert combined.result() == [end.result() for end in ends]
        else:
            assert combined.exception() is first_error

#: One step of the kernel model test.  ``payload`` is what the event does
#: when it fires: nothing, schedule another event (delay 0 is the current
#: instant) or cancel an event by index into the handles made so far.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 100).map(lambda k: k / 10)
)
PAYLOADS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["schedule", "deadline"]), DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
)
ACTIONS = st.one_of(
    st.tuples(st.sampled_from(["schedule", "deadline"]), DELAYS, PAYLOADS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("step")),
)


class KernelModel:
    """Drives a :class:`Simulator` and tracks what it must do: every event
    cancelled before it fires never fires, and the rest fire in
    ``(time, seq)`` order, ``seq`` being the order of scheduling."""

    def __init__(self):
        self.sim = Simulator()
        self.handles = []  # (event, model key)
        self.state = {}  # model key -> "pending" | "fired" | "cancelled"
        self.fired = []

    def schedule(self, delay, payload, arm="schedule"):
        """Arm with ``Simulator.schedule`` or, for ``arm`` "deadline",
        with ``Simulator.deadline``: the model expects the same order."""
        key = (self.sim.now + delay, len(self.handles))
        event = getattr(self.sim, arm)(delay, self.fire, key, payload)
        self.handles.append((event, key))
        self.state[key] = "pending"

    def cancel(self, index):
        if not self.handles:
            return
        event, key = self.handles[index % len(self.handles)]
        event.cancel()  # pending, already cancelled or already fired
        if self.state[key] == "pending":
            self.state[key] = "cancelled"

    def fire(self, key, payload):
        assert self.state[key] == "pending"
        assert self.sim.now == key[0]
        self.state[key] = "fired"
        self.fired.append(key)
        if payload is not None:
            kind, arg = payload
            if kind == "cancel":
                self.cancel(arg)
            else:
                self.schedule(arg, None, kind)
        self.check_pending()

    def check_pending(self):
        live = sum(1 for state in self.state.values() if state == "pending")
        assert self.sim.pending_events == scanned_pending(self.sim) == live

    def expected_order(self):
        return sorted(key for key, state in self.state.items() if state != "cancelled")


class TestKernelModel:
    @settings(max_examples=200, deadline=None)
    @given(
        actions=st.lists(ACTIONS, max_size=120),
        floor=st.sampled_from([0, 1, 4, simkernel._COMPACT_FLOOR]),
    )
    def test_firing_order_and_pending_count_match_reference(self, actions, floor):
        with mock.patch.object(simkernel, "_COMPACT_FLOOR", floor):
            model = KernelModel()
            for action in actions:
                if action[0] in ("schedule", "deadline"):
                    model.schedule(action[1], action[2], action[0])
                elif action[0] == "cancel":
                    model.cancel(action[1])
                else:
                    model.sim.step()
                model.check_pending()
            model.sim.run()
            model.check_pending()
        assert model.sim.pending_events == 0
        assert all(state != "pending" for state in model.state.values())
        assert model.fired == model.expected_order()


class TestCancelledTimerCompaction:
    def test_watchdog_churn_keeps_heap_bounded(self):
        """The pooled-exchange pattern: every round arms a 60 s watchdog
        and cancels it shortly after, while a few periodic events stay
        live.  Without compaction the dead watchdogs pile up (100k)."""
        sim = Simulator()
        live = 5
        ticks = []

        def tick(k):
            ticks.append(k)
            sim.schedule(0.001, tick, k)

        for k in range(live):
            sim.schedule(0.001, tick, k)
        bound = 2 * live + simkernel._COMPACT_FLOOR
        fired = []
        for _ in range(100_000):
            watchdog = sim.schedule(60.0, fired.append, "watchdog")
            sim.step()
            watchdog.cancel()
            assert len(sim._heap) <= bound
        assert sim.pending_events == scanned_pending(sim) == live
        assert len(ticks) == 100_000
        sim.run(until=sim.now + 120.0)
        assert fired == []

    def test_compaction_mid_run_keeps_order(self):
        """A callback whose cancellations trigger compaction while
        ``run`` is iterating the heap."""
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(5.0, fired.append, "doomed") for _ in range(200)]
        for tag in range(10):
            sim.schedule(1.0 + tag, fired.append, tag)

        def cancel_all():
            for event in doomed:
                event.cancel()

        sim.schedule(0.5, cancel_all)
        sim.run()
        assert fired == list(range(10))
        assert len(sim._heap) == 0 and sim.pending_events == 0

    def test_compaction_of_a_shuffled_heap_keeps_order(self):
        """Compaction mid-heap: entries left behind by dropping dead ones
        must be re-heapified, or later pops come out of order."""
        rng = random.Random(7)
        sim = Simulator()
        fired = []
        events = [sim.schedule(rng.uniform(0, 100), fired.append, k) for k in range(300)]
        doomed = set(rng.sample(range(300), 200))
        for k in sorted(doomed):
            events[k].cancel()
        assert len(sim._heap) < 300  # compacted at least once
        sim.run()
        expected = sorted((events[k].time, k) for k in range(300) if k not in doomed)
        assert fired == [k for _, k in expected]

    def test_cancel_after_fire_and_double_cancel_are_not_counted(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.run()
        fired.cancel()
        twice = sim.schedule(1.0, lambda: None)
        twice.cancel()
        twice.cancel()
        sim.schedule(2.0, lambda: None)
        assert sim._cancelled == 1
        assert sim.pending_events == scanned_pending(sim) == 1


class TestDeadlineLanes:
    """``Simulator.deadline``: one FIFO lane per delay, only each lane's
    head on the heap, and the firing order of ``schedule``."""

    def test_deadline_fires_after_its_delay(self):
        sim = Simulator()
        fired = []
        sim.deadline(2.0, fired.append, "late")
        sim.deadline(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == 2.0

    def test_only_the_lane_head_is_on_the_heap(self):
        sim = Simulator()
        handles = [sim.deadline(30.0, lambda: None) for _ in range(100)]
        assert len(sim._heap) == 1
        assert sim.pending_events == scanned_pending(sim) == 100
        for handle in handles[1:]:
            handle.cancel()
        # Cancelling costs no heap entry, and dead entries leave the tail.
        assert len(sim._heap) == 1 and len(sim._lanes[30.0]) == 1
        assert sim.pending_events == scanned_pending(sim) == 1

    def test_a_dead_head_passes_the_lane_on_to_its_next_live_entry(self):
        sim = Simulator()
        fired = []
        first = sim.deadline(5.0, fired.append, "first")
        sim.schedule(1.0, lambda: sim.deadline(5.0, fired.append, "second"))
        sim.run(until=2.0)
        first.cancel()
        assert sim.pending_events == scanned_pending(sim) == 1
        sim.run()
        assert fired == ["second"]
        assert sim.now == 6.0

    def test_drained_lanes_are_kept_up_to_a_bound(self):
        sim = Simulator()
        sim.deadline(1.0, lambda: None)
        sim.deadline(2.0, lambda: None).cancel()
        sim.run()
        assert sim._heap == [] and sim.pending_events == 0
        assert sorted(sim._lanes) == [1.0, 2.0] and not any(sim._lanes.values())
        # A drained lane is refilled in place.
        fired = []
        sim.deadline(1.0, fired.append, "again")
        assert sim.pending_events == scanned_pending(sim) == 1
        sim.run()
        assert fired == ["again"]
        # Computed delays leave no more than the bound behind.
        for k in range(3 * simkernel._KEPT_LANES):
            sim.deadline(0.5 + k / 1000, lambda: None)
        sim.run()
        assert len(sim._lanes) == simkernel._KEPT_LANES
        assert sim.pending_events == scanned_pending(sim) == 0

    def test_same_instant_ties_keep_arming_order(self):
        sim = Simulator()
        fired = []
        sim.deadline(1.0, fired.append, "lane-a")
        sim.schedule(1.0, fired.append, "heap")
        sim.deadline(1.0, fired.append, "lane-b")
        sim.call_soon(lambda: sim.deadline(1.0, fired.append, "lane-c"))
        sim.run()
        assert fired == ["lane-a", "heap", "lane-b", "lane-c"]

    def test_fired_lane_entry_can_rearm_its_own_lane(self):
        sim = Simulator()
        fired = []

        def tick(n):
            fired.append((sim.now, n))
            if n < 3:
                sim.deadline(1.0, tick, n + 1)

        sim.deadline(1.0, tick, 0)
        sim.run()
        assert fired == [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]

    def test_cancel_after_fire_is_a_no_op(self):
        sim = Simulator()
        done = sim.deadline(1.0, lambda: None)
        sim.run()
        done.cancel()
        assert sim._lane_live == 0 and sim.pending_events == 0

    def test_compaction_keeps_a_dead_lane_head(self):
        sim = Simulator()
        fired = []
        head = sim.deadline(10.0, fired.append, "dead head")
        sim.schedule(1.0, lambda: sim.deadline(10.0, fired.append, "lane"))
        sim.run(until=1.0)
        head.cancel()
        doomed = [sim.schedule(5.0, fired.append, "doomed") for _ in range(300)]
        for event in doomed:
            event.cancel()  # compacts the heap more than once
        assert sim.pending_events == scanned_pending(sim) == 1
        sim.run()
        assert fired == ["lane"]
        assert sim.now == 11.0

    @pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
    def test_bad_delays_are_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.deadline(delay, lambda: None)
        assert sim.pending_events == 0 and sim._lanes == {}


def _mixed_run(seed: int, use_lanes: bool):
    """Random arms, cancels and fires over a few delays.  With
    ``use_lanes`` the timeouts are ``deadline``s, else ``schedule``s; every
    other draw is the same, so the two runs must fire alike."""
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    handles = []
    counts = []
    timeouts = [0.0, 0.25, 1.0, 2.5, 30.0]

    def arm(timeout: bool) -> None:
        tag = len(handles)
        if timeout:
            delay = rng.choice(timeouts)
            arming = sim.deadline if use_lanes else sim.schedule
        else:
            delay = rng.choice([0.0, rng.uniform(0.0, 3.0)])
            arming = sim.schedule
        handles.append(arming(delay, fire, tag))

    def fire(tag: int) -> None:
        fired.append((sim.now, tag))
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.45:
                arm(timeout=True)
            elif roll < 0.7:
                arm(timeout=False)
            elif handles:
                handles[rng.randrange(len(handles))].cancel()
        counts.append(sim.pending_events)
        if use_lanes:
            assert sim.pending_events == scanned_pending(sim)

    for _ in range(6):
        arm(timeout=rng.random() < 0.5)
    sim.run(until=60.0)
    return fired, counts


@pytest.mark.parametrize("seed", range(30))
def test_deadline_lanes_fire_in_the_order_of_an_all_schedule_kernel(seed):
    with_lanes = _mixed_run(seed, use_lanes=True)
    all_schedule = _mixed_run(seed, use_lanes=False)
    assert with_lanes == all_schedule
    assert with_lanes[0]


class TestWithin:
    def test_settles_as_the_source_and_cancels_its_timeout(self):
        sim = Simulator()
        source = SimFuture()
        guarded = source.within(sim, 5.0, lambda: AssertionError("no timeout"))
        sim.schedule(1.0, source.set_result, "ok")
        assert sim.run_until_complete(guarded) == "ok"
        assert sim.pending_events == 0

    def test_fails_at_the_deadline_and_ignores_a_late_source(self):
        sim = Simulator()
        source = SimFuture()
        late = TimeoutError("late")
        guarded = source.within(sim, 2.0, lambda: late)
        sim.schedule(3.0, source.set_result, "too late")
        sim.run()
        assert guarded.exception() is late
        assert source.result() == "too late"

    def test_make_exc_may_settle_the_source_first(self):
        sim = Simulator()
        source = SimFuture()
        seen = []
        reaped = ValueError("reaped")

        def reap():
            source.set_exception(reaped)
            seen.append("reaped")
            return TimeoutError("dropped")

        source.add_done_callback(lambda f: seen.append("source"))
        guarded = source.within(sim, 1.0, reap)
        guarded.add_done_callback(lambda f: seen.append("guarded"))
        sim.run()
        assert guarded.exception() is reaped
        assert seen == ["source", "guarded", "reaped"]

    def test_zero_delay_returns_the_source(self):
        sim = Simulator()
        source = SimFuture()
        assert source.within(sim, 0.0, lambda: AssertionError()) is source
        assert sim.pending_events == 0

    def test_settled_source_cancels_at_once(self):
        sim = Simulator()
        guarded = SimFuture.completed(7).within(sim, 1.0, lambda: AssertionError())
        assert guarded.result() == 7
        assert sim.pending_events == 0


class TestDoneCallbacks:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_callbacks_fire_once_in_registration_order(self, count):
        future = SimFuture()
        seen = []
        for index in range(count):
            future.add_done_callback(lambda f, index=index: seen.append(index))
        future.set_exception(ValueError("boom"))
        assert seen == list(range(count))
        future.add_done_callback(lambda f: seen.append("late"))
        assert seen == list(range(count)) + ["late"]

    def test_a_callback_added_while_settling_runs_at_once(self):
        future = SimFuture()
        seen = []
        future.add_done_callback(
            lambda f: f.add_done_callback(lambda g: seen.append("nested"))
        )
        future.add_done_callback(lambda f: seen.append("second"))
        future.set_result(1)
        assert seen == ["nested", "second"]
