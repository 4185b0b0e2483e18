"""Resilience layer for cross-island calls.

The paper demonstrates transparent reachability on a healthy network; this
module keeps the bridge honest under partial failure (the concern SINk and
the service-composition surveys raise for heterogeneous-middleware
gateways).  Three cooperating pieces, all policy-driven and deterministic:

- :class:`CallPolicy` — per-island knobs: a virtual-time *deadline* per
  remote attempt, bounded *retries* with exponential backoff (jitter drawn
  from a seeded RNG so chaotic runs replay bit-for-bit), and circuit-breaker
  parameters.
- :class:`CircuitBreaker` — one per remote island, the classic three-state
  machine: CLOSED counts consecutive connectivity failures; at the threshold
  it OPENs and calls fail fast; after ``breaker_reset_timeout`` it goes
  HALF_OPEN and admits a bounded number of probes that decide between
  re-closing and re-opening.
- :class:`ResilientExecutor` — runs one attempt factory under the policy:
  deadline race, retry loop, breaker accounting, and counters the
  benchmarks read.

A *connectivity* failure (timeout, transport error, unreachable gateway)
trips the breaker; a well-formed remote fault (:class:`RemoteServiceError`)
proves the island is alive and *resets* it — an application error is not an
outage.

:class:`HeartbeatMonitor` is the proactive side: it pings every registered
gateway's control endpoint on a fixed period and keeps a health table
(:attr:`HeartbeatMonitor.health`) of one :class:`GatewayHealth` per island.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    RemoteServiceError,
    ServiceNotFoundError,
)
from repro.net.simkernel import Event, SimFuture, Simulator
from repro.obs import NOOP_OBS, NULL_SPAN


@dataclass(frozen=True)
class CallPolicy:
    """Per-island resilience knobs for remote invocations.

    The defaults are deliberately conservative: a 30 s virtual deadline
    (matching the transport's connect timeout), no retries, and a breaker
    that only opens after five straight connectivity failures — healthy
    topologies behave exactly as before this layer existed.
    """

    #: Virtual seconds one remote attempt may take; 0 disables the deadline.
    deadline: float = 30.0
    #: Extra attempts after the first failed one (0 = single attempt).
    max_retries: int = 0
    #: First backoff delay in virtual seconds.
    backoff_base: float = 0.2
    #: Multiplier applied to the delay per further retry.
    backoff_multiplier: float = 2.0
    #: Jitter as a fraction of the delay, drawn from the policy's seeded RNG.
    backoff_jitter: float = 0.1
    #: Consecutive connectivity failures that open the breaker; 0 disables it.
    breaker_threshold: int = 5
    #: Virtual seconds an OPEN breaker waits before going HALF_OPEN.
    breaker_reset_timeout: float = 10.0
    #: Probe attempts admitted while HALF_OPEN before re-deciding.
    breaker_half_open_probes: int = 1
    #: Gateway heartbeat period; 0 disables heartbeating.
    heartbeat_interval: float = 0.0
    #: Deadline for one heartbeat ping.
    heartbeat_deadline: float = 5.0
    #: Missed heartbeats before an island is marked dead.
    heartbeat_failure_threshold: int = 2
    #: Deadline for VSR directory lookups; 0 falls back to transport timeouts.
    directory_deadline: float = 0.0
    #: Seed for the backoff-jitter RNG (determinism across runs).
    seed: int = 0


def is_connectivity_failure(exc: BaseException) -> bool:
    """True when a failed attempt says nothing about the *service* but a lot
    about the *path*: the breaker and retry loop act only on these."""
    if isinstance(exc, (RemoteServiceError, ServiceNotFoundError, CircuitOpenError)):
        return False
    return True


class CircuitBreaker:
    """Per-remote-island breaker with half-open probing."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"
    #: Each state as a number, so the metrics registry can report it as a
    #: gauge (``level``).
    LEVELS = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

    def __init__(self, sim: Simulator, policy: CallPolicy, island: str) -> None:
        self.sim = sim
        self.policy = policy
        self.island = island
        self.state = CircuitBreaker.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.opens = 0
        self.fast_failures = 0
        self.probes = 0
        #: Invoked with the island name each time the breaker opens —
        #: lets interested layers (pooled connections) react to outages.
        self.on_open: Callable[[str], None] | None = None
        #: Invoked as ``on_transition(island, old_state, new_state)`` on
        #: every state change — the observability layer counts these.
        self.on_transition: Callable[[str, str, str], None] | None = None

    @property
    def level(self) -> int:
        return CircuitBreaker.LEVELS[self.state]

    def _set_state(self, new_state: str) -> None:
        old_state, self.state = self.state, new_state
        if old_state != new_state and self.on_transition is not None:
            self.on_transition(self.island, old_state, new_state)

    # -- admission ----------------------------------------------------------

    def admit(self) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed.

        An OPEN breaker whose reset timeout elapsed transitions to
        HALF_OPEN here, admitting up to ``breaker_half_open_probes``
        concurrent probes.
        """
        if self.policy.breaker_threshold <= 0 or self.state == CircuitBreaker.CLOSED:
            return
        retry_at = self._opened_at + self.policy.breaker_reset_timeout
        if self.state == CircuitBreaker.OPEN:
            if self.sim.now < retry_at:
                self.fast_failures += 1
                raise CircuitOpenError(self.island, retry_at)
            self._set_state(CircuitBreaker.HALF_OPEN)
            self._probes_in_flight = 0
        if self._probes_in_flight >= self.policy.breaker_half_open_probes:
            self.fast_failures += 1
            raise CircuitOpenError(self.island, retry_at)
        self._probes_in_flight += 1
        self.probes += 1

    # -- outcome accounting --------------------------------------------------

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state != CircuitBreaker.CLOSED:
            self._set_state(CircuitBreaker.CLOSED)
            self._probes_in_flight = 0

    def record_failure(self) -> None:
        if self.policy.breaker_threshold <= 0:
            return
        if self.state == CircuitBreaker.HALF_OPEN:
            # A failed probe re-opens immediately and restarts the clock.
            self._open()
            return
        self._consecutive_failures += 1
        if (
            self.state == CircuitBreaker.CLOSED
            and self._consecutive_failures >= self.policy.breaker_threshold
        ):
            self._open()

    def _open(self) -> None:
        self._set_state(CircuitBreaker.OPEN)
        self._opened_at = self.sim.now
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self.opens += 1
        if self.on_open is not None:
            self.on_open(self.island)


class ResilientExecutor:
    """Runs remote attempts under a :class:`CallPolicy` for one gateway."""

    def __init__(
        self,
        sim: Simulator,
        policy: CallPolicy,
        obs: Any = None,
        label: str = "",
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.obs = obs if obs is not None else NOOP_OBS
        #: Metric namespace, normally the owning gateway's island name.
        self.label = label
        self._rng = random.Random(policy.seed)
        #: Remote island -> its breaker, created by the first call there.
        self.breakers: dict[str, CircuitBreaker] = {}
        self._open_listeners: list[Callable[[str], None]] = []
        self._transition_listeners: list[Callable[[str, str, str], None]] = []
        self.attempts = 0
        self.timeouts = 0
        self.retries = 0
        self.failures = 0
        self.successes = 0
        metrics = self.obs.metrics
        metrics.track(
            f"resilience.{label}",
            self,
            "counter",
            ("attempts", "timeouts", "retries", "failures", "successes"),
        )
        prefix = f"resilience.{label}.breaker"
        metrics.track_each(prefix, self.breakers, "counter", ("opens", "fast_failures", "probes"))
        metrics.track_each(prefix, self.breakers, "gauge", {"state": "level"})

    def add_open_listener(self, listener: Callable[[str], None]) -> None:
        """``listener(island)`` fires whenever any island's breaker opens.
        The gateway uses this to evict pooled interchange connections to
        an island that just proved unreachable."""
        self._open_listeners.append(listener)
        for breaker in self.breakers.values():
            breaker.on_open = self._notify_open

    def add_transition_listener(
        self, listener: Callable[[str, str, str], None]
    ) -> None:
        """``listener(island, old_state, new_state)`` fires on every breaker
        state change (open, half-open probe admission, re-close)."""
        self._transition_listeners.append(listener)

    def _notify_open(self, island: str) -> None:
        for listener in list(self._open_listeners):
            listener(island)

    def _notify_transition(self, island: str, old: str, new: str) -> None:
        # Transitions are rare (an outage, not a call), so the counter
        # lookup can be lazy instead of cached per island.
        self.obs.metrics.counter(
            f"resilience.{self.label}.breaker.{island}.to_{new.replace('-', '_')}"
        ).inc()
        for listener in list(self._transition_listeners):
            listener(island, old, new)

    def breaker_for(self, island: str) -> CircuitBreaker:
        """The breaker for ``island``, created on first use (read
        :attr:`breakers` to look without creating one)."""
        breaker = self.breakers.get(island)
        if breaker is None:
            breaker = CircuitBreaker(self.sim, self.policy, island)
            if self._open_listeners:
                breaker.on_open = self._notify_open
            breaker.on_transition = self._notify_transition
            self.breakers[island] = breaker
        return breaker

    def backoff_delay(self, retry_index: int) -> float:
        """Deterministic exponential backoff with seeded jitter."""
        delay = self.policy.backoff_base * (
            self.policy.backoff_multiplier ** retry_index
        )
        if self.policy.backoff_jitter:
            delay += delay * self.policy.backoff_jitter * self._rng.random()
        return delay

    def execute(
        self,
        island: str,
        attempt_factory: Callable[[], SimFuture],
        span: Any = NULL_SPAN,
    ) -> SimFuture:
        """Run ``attempt_factory`` under deadline/retry/breaker policy.

        ``attempt_factory`` is invoked once per attempt and must return a
        fresh :class:`SimFuture`.  The returned future resolves with the
        first successful attempt's value, or with the last failure once the
        policy is exhausted (fast :class:`CircuitOpenError` when the
        island's breaker is open).

        ``span``, when recording, receives annotations for retries,
        timeouts and breaker fast-failures — the per-call trace of what the
        policy did.
        """
        run = _Execution(self, island, attempt_factory, span)
        run.attempt()
        return run.result


class _Execution:
    """One :meth:`ResilientExecutor.execute` call: its retry count and the
    future it settles, with the attempt loop as methods.  Held in a record
    rather than in two closures that name each other, which would make
    every call a reference cycle left to the collector."""

    __slots__ = ("executor", "island", "attempt_factory", "span", "breaker", "retry", "result")

    def __init__(
        self,
        executor: ResilientExecutor,
        island: str,
        attempt_factory: Callable[[], SimFuture],
        span: Any,
    ) -> None:
        self.executor = executor
        self.island = island
        self.attempt_factory = attempt_factory
        self.span = span
        self.breaker = executor.breaker_for(island)
        self.retry = 0
        self.result = SimFuture()

    def attempt(self) -> None:
        try:
            self.breaker.admit()
        except CircuitOpenError as exc:
            if self.span.recording:
                self.span.annotate(f"breaker open for {self.island}; failing fast")
            self.result.set_exception(exc)
            return
        executor = self.executor
        executor.attempts += 1
        try:
            attempt = self.attempt_factory()
        except Exception as exc:
            self.failed(exc)
            return
        attempt.within(executor.sim, executor.policy.deadline, self.timed_out).add_done_callback(
            self.settle
        )

    def timed_out(self) -> DeadlineExceededError:
        return DeadlineExceededError(
            f"remote call to island {self.island!r} exceeded "
            f"{self.executor.policy.deadline}s deadline"
        )

    def settle(self, done: SimFuture) -> None:
        exc = done.exception()
        if exc is None:
            self.executor.successes += 1
            self.breaker.record_success()
            self.result.set_result(done.result())
            return
        if isinstance(exc, DeadlineExceededError):
            self.executor.timeouts += 1
            if self.span.recording:
                self.span.annotate(f"attempt {self.retry + 1} to {self.island} timed out")
        self.failed(exc)

    def failed(self, exc: BaseException) -> None:
        executor = self.executor
        connectivity = is_connectivity_failure(exc)
        if connectivity:
            self.breaker.record_failure()
        elif isinstance(exc, RemoteServiceError):
            # The island answered: connectivity is fine.
            self.breaker.record_success()
        if not connectivity or self.retry >= executor.policy.max_retries:
            executor.failures += 1
            self.result.set_exception(exc)
            return
        delay = executor.backoff_delay(self.retry)
        self.retry += 1
        executor.retries += 1
        if self.span.recording:
            self.span.annotate(
                f"retry {self.retry}/{executor.policy.max_retries} to "
                f"{self.island} after {delay:.3f}s backoff"
            )
        executor.sim.schedule(delay, self.attempt)


@dataclass
class GatewayHealth:
    """Liveness record for one remote gateway, kept by the heartbeat."""

    island: str
    alive: bool = True
    last_seen: float = 0.0
    consecutive_failures: int = 0
    pings: int = 0
    failures: int = 0


class HeartbeatMonitor:
    """Periodic liveness probing of every other registered gateway.

    Each tick lists the VSR's gateway registry (served from the client's
    cache when the directory itself is down) and pings each foreign control
    endpoint through the gateway's own interchange protocol.  An island is
    marked dead after ``heartbeat_failure_threshold`` straight misses and
    resurrected by the first successful ping.
    """

    def __init__(self, vsg: Any) -> None:
        self.vsg = vsg
        self.sim: Simulator = vsg.sim
        self.policy: CallPolicy = vsg.policy
        self.health: dict[str, GatewayHealth] = {}
        metrics = vsg.obs.metrics
        prefix = f"heartbeat.{vsg.island}"
        metrics.track_each(prefix, self.health, "counter", ("pings", "failures"))
        metrics.track_each(prefix, self.health, "gauge", ("alive", "last_seen"))
        self.ticks = 0
        self._timer: Event | None = None
        self._running = False
        self._listeners: list[Callable[[str, bool, GatewayHealth], None]] = []

    def add_listener(
        self, listener: Callable[[str, bool, GatewayHealth], None]
    ) -> None:
        """``listener(island, alive, record)`` on every liveness *flip*
        (alive→dead after the failure threshold, dead→alive on the first
        successful ping) — not on every ping.  The telemetry collector and
        flight recorder subscribe here."""
        self._listeners.append(listener)

    def _notify(self, island: str, alive: bool, record: GatewayHealth) -> None:
        for listener in list(self._listeners):
            listener(island, alive, record)

    def start(self) -> None:
        if self._running or self.policy.heartbeat_interval <= 0:
            return
        self._running = True
        self._timer = self.sim.schedule(self.policy.heartbeat_interval, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1

        def on_gateways(future: SimFuture) -> None:
            if future.exception() is None:
                gateways: dict[str, str] = future.result()
                for island, location in sorted(gateways.items()):
                    if island != self.vsg.island:
                        self._ping(island, location)
            self._reschedule()

        self.vsg.vsr.list_gateways().add_done_callback(on_gateways)

    def _reschedule(self) -> None:
        if self._running:
            self._timer = self.sim.schedule(self.policy.heartbeat_interval, self._tick)

    def _ping(self, island: str, location: str) -> None:
        record = self.health.setdefault(island, GatewayHealth(island=island))
        record.pings += 1
        try:
            raw = self.vsg.protocol.ping_remote(location)
        except Exception:
            raw = SimFuture.failed(
                DeadlineExceededError(f"heartbeat to {island!r} unsendable")
            )
        guarded = raw.within(
            self.sim,
            self.policy.heartbeat_deadline,
            lambda: DeadlineExceededError(
                f"heartbeat to island {island!r} exceeded "
                f"{self.policy.heartbeat_deadline}s"
            ),
        )

        def on_done(done: SimFuture) -> None:
            if done.exception() is None:
                was_alive = record.alive
                record.alive = True
                record.last_seen = self.sim.now
                record.consecutive_failures = 0
                if not was_alive:
                    self._notify(island, True, record)
            else:
                record.failures += 1
                record.consecutive_failures += 1
                if (
                    record.consecutive_failures
                    >= self.policy.heartbeat_failure_threshold
                    and record.alive
                ):
                    record.alive = False
                    self._notify(island, False, record)
                # A failed probe also condemns any pooled keep-alive
                # connection to that endpoint (getattr: vsg is duck-typed
                # and bare test doubles may lack the protocol hook).
                invalidate = getattr(self.vsg.protocol, "invalidate_location", None)
                if invalidate is not None:
                    invalidate(location)

        guarded.add_done_callback(on_done)
