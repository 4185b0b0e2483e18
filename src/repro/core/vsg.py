"""The Virtual Service Gateway (paper Section 3.1).

One VSG per middleware island.  It owns the island's *exported* services
(registered by the PCM's Client Proxy side), routes outbound neutral calls
to the gateway holding the target service (located through the VSR), and
bridges events between islands.

The interchange protocol is a strategy (:class:`GatewayProtocol`): "How the
protocol should we chose is demands on the purpose of service integration"
— the prototype used SOAP; SIP is implemented as the alternative the paper
discusses.  Crucially for experiment C3, a protocol declares whether it can
*push* events: SOAP/HTTP cannot (subscribers must poll), SIP can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.errors import (
    CircuitOpenError,
    ConversionError,
    DeadlineExceededError,
    GatewayError,
    ServiceNotFoundError,
    TransportError,
)
from repro.net.node import Node
from repro.net.simkernel import Event, SimFuture
from repro.net.transport import TransportStack
from repro.soap.wsdl import WsdlDocument
from repro.core import values
from repro.core.calls import ServiceCall
from repro.core.interface import ServiceInterface
from repro.core.resilience import (
    CallPolicy,
    HeartbeatMonitor,
    ResilientExecutor,
    is_connectivity_failure,
)
from repro.core.vsr import VsrClient
from repro.obs import NOOP_OBS, NULL_SPAN

#: A local service handler: ``handler(operation, args) -> value | SimFuture``.
LocalHandler = Callable[[str, list[Any]], Any]
#: An event callback: ``callback(topic, payload, source_island)``.
EventCallback = Callable[[str, Any, str], None]

DEFAULT_POLL_INTERVAL = 2.0
#: Virtual seconds a publisher coalesces a burst of events before flushing
#: one batched frame down a push channel.  0 still coalesces same-instant
#: bursts (the flush fires after the current instant's callbacks) while
#: adding no latency.
EVENT_FLUSH_WINDOW = 0.0


def topic_matches(pattern: str, topic: str) -> bool:
    """True when ``topic`` is selected by ``pattern``.

    A pattern is either an exact topic name or a prefix wildcard: a
    trailing ``*`` matches any topic starting with the prefix before it
    (``x10.*`` matches ``x10.ON`` and ``x10.OFF``; ``*`` alone matches
    everything).  A ``*`` anywhere else has no special meaning — the
    pattern then only matches itself, so exact-topic subscriptions keep
    their historical equality semantics bit for bit.
    """
    if pattern == topic:
        return True
    if pattern.endswith("*"):
        return topic.startswith(pattern[:-1])
    return False


def _accepted(announce: SimFuture) -> bool:
    """The one success rule of a subscription announce: no failure, and a
    truthy result (the number of topics the publisher accepted)."""
    return announce.exception() is None and bool(announce.result())


class FullEventCallback:
    """Wrap an event callback that wants the *whole* event record.

    The plain :data:`EventCallback` contract hands subscribers
    ``(topic, payload, source_island)`` — enough for display, too little
    for exactly-once processing: the at-least-once delivery modes (poll
    fallback folding, channel redelivery) can hand the same event to a
    subscriber twice, and only the record's ``(island, sequence)`` pair
    identifies it.  Subscribing with ``FullEventCallback(fn)`` delivers
    ``fn(event_dict)`` with every field the publisher stamped —
    ``topic``, ``payload``, ``island``, ``sequence``, ``published_at`` —
    so consumers like ``repro.rules`` can deduplicate redeliveries.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[dict[str, Any]], None]) -> None:
        self.fn = fn

    def __call__(self, event: dict[str, Any]) -> None:
        self.fn(event)


class GatewayProtocol:
    """Strategy interface for the VSG interchange protocol."""

    name = "abstract"
    #: True when the protocol can deliver events unsolicited (push).
    supports_push = False

    def start(self, vsg: "VirtualServiceGateway") -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def location(self, service: str) -> str:
        """Endpoint locator to publish in the service's WSDL."""
        raise NotImplementedError

    def control_location(self) -> str:
        """Locator of this gateway's control endpoint (events etc.)."""
        raise NotImplementedError

    def call_remote(self, location: str, call: ServiceCall) -> SimFuture:
        """Send a neutral call to a remote gateway; resolves to the value."""
        raise NotImplementedError

    def subscribe_remote(
        self, control_location: str, island: str, topics: list[str]
    ) -> SimFuture:
        """Tell a remote gateway that ``island`` wants events on ``topics``
        (a non-empty list).  Resolves to the number of topics accepted
        (truthy); fails when none was."""
        raise NotImplementedError

    def invalidate_location(self, location: str) -> None:
        """Drop any cached transport state for ``location`` (pooled
        keep-alive connections etc.).  Called by the resilience layer when
        a breaker opens or a call fails on connectivity, so a partitioned
        or crashed peer is never reached through a stale connection.
        Default: nothing cached, nothing to do."""

    def push_event(self, control_location: str, event: dict[str, Any]) -> None:
        """Push one event to a subscriber gateway (push protocols only)."""
        raise NotImplementedError

    def poll_events(self, control_location: str, island: str) -> SimFuture:
        """Fetch queued events for ``island`` (pull protocols only)."""
        raise NotImplementedError

    def open_event_channel(
        self,
        control_location: str,
        island: str,
        on_batch: Callable[[int, list[dict[str, Any]]], None],
        on_dead: Callable[[BaseException], None],
        initial_ack: int = 0,
    ) -> Any:
        """Open a streamed push event channel to the publisher gateway at
        ``control_location`` — the third delivery mode, for pull protocols
        on the modern interchange.  Returns a channel object exposing
        ``start``/``stop``/``kill`` or ``None`` when this island does not
        stream events, in which case the caller keeps polling.  Default:
        no channel support."""
        return None

    def ping_remote(self, control_location: str) -> SimFuture:
        """Liveness probe of a remote gateway's control endpoint; resolves
        to the remote island name (used by the heartbeat monitor)."""
        raise NotImplementedError


def _cancel(*timers: Event | None) -> None:
    for timer in timers:
        if timer is not None:
            timer.cancel()


@dataclass(slots=True)
class _Subscriber:
    """Publisher-side state for one remote subscriber island."""

    topics: set[str] = field(default_factory=set)  # topic patterns
    location: str = ""  # control location (push protocols deliver there)
    queue: list[dict[str, Any]] = field(default_factory=list)
    #: The parked push-channel wait, and ``waits_handled`` when it parked:
    #: shutdown answers parked waits in the order they parked.
    waiter: SimFuture | None = None
    parked: int = 0
    hold_timer: Event | None = None
    flush_timer: Event | None = None
    batch: int = 0  # last batch id issued
    #: (batch id, events) retained until the subscriber acks; redelivered
    #: on reconnect, folded into the next fetch on fallback.
    unacked: tuple[int, list[dict[str, Any]]] | None = None


@dataclass(slots=True)
class _Publisher:
    """Subscriber-side state for one remote publisher gateway."""

    island: str | None = None  # None until an announce or the WAL names it
    #: Kept while its poll is in flight, so a second loop never starts.
    poll_timer: Event | None = None
    channel: Any = None
    channel_ack: int = 0  # highest batch delivered through a channel
    channel_attempts: int = 0
    reconnect_timer: Event | None = None
    poll_failures: int = 0


class EventRouter:
    """Cross-island event bridging living inside each VSG.

    Publisher side: remembers which islands subscribed to which topics.
    For push protocols events go out immediately; for pull protocols they
    queue until the subscriber's next poll — the mechanism behind the
    paper's "HTTP ... does not map well to asynchronous notification".

    A third delivery mode sits between the two: when a pull protocol's
    island runs the modern interchange, the subscriber opens one streamed
    channel per remote gateway (a held exchange the publisher answers the
    moment :meth:`publish` fires, coalescing bursts within
    :data:`EVENT_FLUSH_WINDOW`) and the poll loop stops.  On channel
    death the router falls back to polling instantly and re-establishes
    the channel with the resilience layer's backoff, so events keep
    flowing through crashes, partitions and breaker trips.
    """

    #: Poll-batch histogram bounds: events drained per fetch round trip.
    POLL_BATCH_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

    #: Consecutive poll failures before the router asks the VSR whether
    #: the gateway is still registered (and prunes the loop if not).
    POLL_PRUNE_FAILURES = 2

    #: Ceiling on the channel re-establishment backoff, virtual seconds.
    CHANNEL_RETRY_CAP = 30.0

    def __init__(self, vsg: "VirtualServiceGateway") -> None:
        self.vsg = vsg
        self._local_subs: dict[str, list[EventCallback]] = {}
        #: Prefix-wildcard subscriptions (topic ends in ``*``), kept out of
        #: the exact-match table so the historical fast path is untouched.
        self._pattern_subs: dict[str, list[EventCallback]] = {}
        #: Remote subscriber island -> its record, in subscription order
        #: (the order :meth:`publish` fans out in).
        self._subscribers: dict[str, _Subscriber] = {}
        #: Remote publisher control location -> its record.
        self._publishers: dict[str, _Publisher] = {}
        self._polling_stopped = False
        #: Bumped on every cold crash.  In-flight poll/registry callbacks
        #: capture the generation at issue time and bail when it moved, so
        #: a pre-crash poll can never resurrect a loop the recovery path
        #: already re-armed (the stale-interlock bug).
        self._delivery_generation = 0
        self._sequence = 0
        self.events_published = 0
        self.events_delivered = 0
        self.polls_performed = 0
        self.events_pushed = 0
        self.waits_handled = 0
        #: Every channel client ever opened — kept past channel death so
        #: post-shutdown pool-leak audits can inspect each one's HTTP pool.
        self.channel_clients: list[Any] = []
        self.channels_opened = 0
        self.channel_deaths = 0
        metrics = vsg.obs.metrics
        metrics.track(
            f"events.{vsg.island}",
            self,
            "counter",
            {
                "published": "events_published",
                "delivered": "events_delivered",
                "polls": "polls_performed",
                "pushed": "events_pushed",
                "waits": "waits_handled",
                "channels_opened": "channels_opened",
                "channel_deaths": "channel_deaths",
                "delivery_log_dropped": "delivery_log_dropped",
            },
        )
        self._m_poll_batch = metrics.histogram(
            f"events.{vsg.island}.poll_batch", buckets=self.POLL_BATCH_BUCKETS
        )
        self._m_flush_batch = metrics.histogram(
            f"events.{vsg.island}.flush_batch", buckets=self.POLL_BATCH_BUCKETS
        )
        # -- durability probes (populated only when a journal is attached;
        # -- the no-lost-acked-event oracle reads them after a run)
        #: (subscriber island, sequence) -> event, recorded the instant an
        #: event is queued for a remote subscriber: the at-least-once
        #: promise the oracle holds this publisher to.
        self.retention_obligations: dict[tuple[str, int], dict[str, Any]] = {}
        #: Obligations handed over in a fetch reply.  The poll reply wire
        #: is the one declared at-most-once window (no fetch-level ack),
        #: so handing the batch to the transport discharges the promise.
        self.fetch_discharged: set[tuple[str, int]] = set()
        #: (source island, sequence) of every event delivered locally.
        self.delivered_keys: set[tuple[str, int]] = set()
        #: Per-delivery records (topic, source island, published_at,
        #: delivered_at, latency) — read by the C3 latency experiment.
        self.delivery_log: list[dict[str, Any]] = []
        self.delivery_log_limit = 10000
        #: Deliveries that found the log full.  Mirrors the TrafficMonitor
        #: ``trace_dropped`` contract: the counter keeps climbing after the
        #: cap so truncation is visible instead of silent.
        self.delivery_log_dropped = 0

    # -- publishing ------------------------------------------------------------

    def publish(self, topic: str, payload: Any) -> None:
        self._sequence += 1
        self.events_published += 1
        event = {
            "topic": topic,
            "payload": payload,
            "island": self.vsg.island,
            "sequence": self._sequence,
            "published_at": self.vsg.sim.now,
        }
        journal = self.vsg.journal
        if journal is not None:
            journal.log_sequence(self._sequence)
        self._deliver_local(event)
        for island, record in self._subscribers.items():
            topics = record.topics
            # Exact membership first (the historical path), then the
            # wildcard scan — islands with only exact subscriptions never
            # pay for pattern matching.
            if topic not in topics and not any(
                "*" in sub and topic_matches(sub, topic) for sub in topics
            ):
                continue
            if self.vsg.protocol.supports_push:
                if record.location:
                    try:
                        self.vsg.protocol.push_event(record.location, event)
                    except Exception:
                        pass  # unreachable or foreign-protocol subscriber
            else:
                record.queue.append(event)
                if journal is not None:
                    journal.log_queue(island, event)
                    self.retention_obligations[(island, event["sequence"])] = event
                if record.waiter is not None:
                    # A push channel is parked on this island: flush the
                    # queue down it after the coalescing window.
                    self._schedule_flush(island, record)

    def _deliver_local(self, event: dict[str, Any]) -> None:
        if self.vsg.journal is not None and "sequence" in event:
            self.delivered_keys.add((event["island"], event["sequence"]))
        callbacks = self._local_subs.get(event["topic"], [])
        if self._pattern_subs:
            for pattern, pattern_callbacks in self._pattern_subs.items():
                if topic_matches(pattern, event["topic"]):
                    callbacks = callbacks + pattern_callbacks
        if callbacks:
            if len(self.delivery_log) < self.delivery_log_limit:
                published_at = float(event.get("published_at", self.vsg.sim.now))
                self.delivery_log.append(
                    {
                        "topic": event["topic"],
                        "island": event["island"],
                        "published_at": published_at,
                        "delivered_at": self.vsg.sim.now,
                        "latency": self.vsg.sim.now - published_at,
                    }
                )
            else:
                self.delivery_log_dropped += 1
        for callback in callbacks:
            self.events_delivered += 1
            if isinstance(callback, FullEventCallback):
                callback(event)
            else:
                callback(event["topic"], event["payload"], event["island"])

    # -- inbound control (called by the protocol's server side) --------------------

    def _subscriber(self, island: str) -> _Subscriber:
        record = self._subscribers.get(island)
        if record is None:
            record = self._subscribers[island] = _Subscriber()
        return record

    def handle_subscribe(self, island: str, topic: str, control_location: str) -> bool:
        record = self._subscriber(island)
        if not record.topics:
            # First topic: the island joins the fan-out order now, even
            # when a wait made its record earlier.
            self._subscribers[island] = self._subscribers.pop(island)
        journal = self.vsg.journal
        if journal is not None and topic not in record.topics:
            journal.log_remote_sub(island, topic, control_location)
        record.topics.add(topic)
        if control_location:
            record.location = control_location
        return True

    def handle_fetch(self, island: str) -> list[dict[str, Any]]:
        record = self._subscribers.get(island)
        if record is None:
            return []
        queued, record.queue = record.queue, []
        # A batch flushed down a now-dead channel but never acked belongs
        # to the fallback poll: at-least-once, never lost.
        retained, record.unacked = record.unacked, None
        if retained is not None:
            queued = retained[1] + queued
        journal = self.vsg.journal
        if journal is not None and queued:
            journal.log_drain(island)
            for event in queued:
                self.fetch_discharged.add((island, event["sequence"]))
        return queued

    def handle_push(self, event: dict[str, Any]) -> bool:
        self._deliver_local(event)
        return True

    def handle_wait(self, island: str, ack: int, hold: float) -> SimFuture:
        """Publisher side of the push channel: park a held exchange for
        ``island`` and resolve it with ``(batch_id, events)`` on the next
        flush — or with an empty keepalive when ``hold`` expires.

        ``ack`` releases the retained unacked batch once the subscriber
        has delivered it; a lower ack means the previous frame was lost
        (channel death mid-response), so the retained batch is redelivered
        immediately.  The caller clamps ``hold`` to its own maximum.
        """
        self.waits_handled += 1
        record = self._subscriber(island)
        if self._polling_stopped:
            # Shutting down: answer empty instead of parking forever.
            return SimFuture.completed((record.batch, []))
        retained = record.unacked
        if retained is not None and ack >= retained[0]:
            record.unacked = None
            if self.vsg.journal is not None:
                self.vsg.journal.log_ack(island, ack)
            retained = None
        # Supersede any stale parked waiter (the subscriber re-armed after
        # its watchdog reaped an exchange we still believed live).
        self._resolve_waiter(record, record.batch, [])
        if retained is not None:
            return SimFuture.completed(retained)
        waiter: SimFuture = SimFuture()
        record.waiter = waiter
        record.parked = self.waits_handled
        if hold > 0:
            # A held exchange is usually answered before its hold runs out,
            # so the timer rides a deadline lane.  Subscribers ask for the
            # channel's maximum hold, so every wait shares one lane.
            record.hold_timer = self.vsg.sim.deadline(hold, self._hold_expired, record)
        if record.queue:
            self._schedule_flush(island, record)
        return waiter

    # -- publisher-side channel internals -------------------------------------

    def _schedule_flush(self, island: str, record: _Subscriber) -> None:
        if record.flush_timer is not None or record.waiter is None:
            return
        record.flush_timer = self.vsg.sim.schedule(
            EVENT_FLUSH_WINDOW, self._flush, island, record
        )

    def _flush(self, island: str, record: _Subscriber) -> None:
        record.flush_timer = None
        if record.waiter is None:
            return  # hold expiry raced the flush; events stay queued
        events = record.queue
        if not events:
            return
        record.queue = []
        record.batch += 1
        batch = record.batch
        record.unacked = (batch, list(events))
        if self.vsg.journal is not None:
            # The journal's queue for this island holds exactly `events`
            # (evq appends, drain/flush clears), so the record only needs
            # the batch id — replay folds the queue into the unacked slot.
            self.vsg.journal.log_flush(island, batch)
        self.events_pushed += len(events)
        if self.vsg.obs.enabled:
            self._m_flush_batch.observe(float(len(events)))
        self._resolve_waiter(record, batch, events)

    def _hold_expired(self, record: _Subscriber) -> None:
        self._resolve_waiter(record, record.batch, [])

    def _resolve_waiter(
        self, record: _Subscriber, batch: int, events: list[dict[str, Any]]
    ) -> None:
        waiter, record.waiter = record.waiter, None
        _cancel(record.hold_timer)
        record.hold_timer = None
        if waiter is not None and not waiter.done():
            waiter.set_result((batch, events))

    # -- subscribing ------------------------------------------------------------

    def _register_local(self, topic: str, callback: EventCallback) -> None:
        table = self._pattern_subs if topic.endswith("*") else self._local_subs
        table.setdefault(topic, []).append(callback)

    def subscribe_many(self, topics: list[str], callback: EventCallback) -> SimFuture:
        """Subscribe to ``topics`` everywhere.

        Registers the callback locally, then announces the whole topic
        list to every other gateway listed in the VSR, one announce per
        gateway (see :meth:`_announce`).  Resolves to the number of remote
        gateways that accepted at least one topic.

        A topic may be a prefix pattern (trailing ``*``, see
        :func:`topic_matches`): one announcement then covers every
        matching topic at each publisher — the pattern string itself
        travels on the wire, so exact subscriptions are byte-identical
        to the pre-pattern protocol.
        """
        for topic in topics:
            self._register_local(topic, callback)
            if self.vsg.journal is not None:
                self.vsg.journal.log_local_topic(topic)
        if not topics:
            return SimFuture.completed(0)
        result: SimFuture = SimFuture()
        generation = self._delivery_generation

        def on_gateways(future: SimFuture) -> None:
            if generation != self._delivery_generation or self.vsg.down:
                # The process crashed (cold) while the registry lookup was
                # in flight: the pre-crash subscription attempt must not
                # touch the journal or start poll loops for a dead epoch.
                result.set_exception(
                    GatewayError(
                        f"island {self.vsg.island!r} gateway restarted "
                        "during subscribe"
                    )
                )
                return
            exc = future.exception()
            if exc is not None:
                result.set_exception(exc)
                return
            remote = {
                island: location
                for island, location in future.result().items()
                if island != self.vsg.island
            }
            if not remote:
                result.set_result(0)
                return
            pending = len(remote)
            accepted = 0

            def one_done(done: SimFuture) -> None:
                nonlocal pending, accepted
                if _accepted(done):
                    accepted += 1
                pending -= 1
                if pending == 0:
                    result.set_result(accepted)

            for island, location in remote.items():
                self._announce(location, island, topics, one_done)

        self.vsg.vsr.list_gateways().add_done_callback(on_gateways)
        return result

    def _announce(
        self,
        location: str,
        island: str,
        topics: list[str],
        on_done: Callable[[SimFuture], None] | None = None,
    ) -> None:
        """Announce ``topics`` to the gateway at ``location`` with one
        bounded ``subscribe_remote``; ``on_done`` gets the outcome.  On a
        pull protocol the poll loop starts now, and an accepted announce
        (the publisher is reachable) opens the push channel."""
        try:
            announce = self.vsg.protocol.subscribe_remote(
                location, self.vsg.island, topics
            )
        except Exception as exc:
            # A gateway speaking another protocol (its location is
            # unparseable to ours) cannot forward us events; count it as a
            # failed subscription, not a crash.
            announce = SimFuture.failed(exc)
        bounded = self._bounded(announce, f"subscribe announce to {island}")
        if on_done is not None:
            bounded.add_done_callback(on_done)
        if not self.vsg.protocol.supports_push:
            self._track_remote_gateway(location, island)
            self._ensure_poll_loop(location)

            def open_channel(done: SimFuture) -> None:
                if _accepted(done):
                    self._maybe_open_channel(location)

            bounded.add_done_callback(open_channel)

    def _bounded(self, future: SimFuture, what: str) -> SimFuture:
        """Race a control-plane round trip against the island's call
        deadline.  Without this a single lost reply frame parks the
        subscription future forever (there is no transport retransmission),
        and a lost poll reply would stall that poll loop for good.
        """
        deadline = self.vsg.policy.deadline
        return future.within(
            self.vsg.sim,
            deadline,
            lambda: DeadlineExceededError(f"{what} exceeded {deadline:g}s"),
        )

    def _publisher(self, control_location: str) -> _Publisher:
        record = self._publishers.get(control_location)
        if record is None:
            record = self._publishers[control_location] = _Publisher()
        return record

    def _track_remote_gateway(self, control_location: str, island: str) -> None:
        record = self._publisher(control_location)
        if self.vsg.journal is not None and record.island != island:
            self.vsg.journal.log_remote_gateway(control_location, island)
        record.island = island

    def _ensure_poll_loop(self, control_location: str) -> None:
        if self._publisher(control_location).poll_timer is None:
            self._schedule_poll(control_location)

    def _poll(self, control_location: str) -> None:
        if self._polling_stopped:
            return
        self.polls_performed += 1
        generation = self._delivery_generation
        try:
            poll_future = self.vsg.protocol.poll_events(
                control_location, self.vsg.island
            )
        except Exception as exc:
            if is_connectivity_failure(exc):
                # The send itself failed — our own interfaces are down
                # (crashed mid-poll) or the path is gone.  That is an
                # ordinary poll failure, not a foreign-protocol peer:
                # count it and keep the loop alive through the usual
                # failure path instead of killing it for good.
                self._poll_failed(control_location)
                return
            # Foreign-protocol gateway: stop polling it for good.
            self._publisher(control_location).poll_timer = None
            return

        def on_events(future: SimFuture) -> None:
            if self._polling_stopped or generation != self._delivery_generation:
                # The gateway shut down (or cold-crashed) while this poll
                # was in flight; a reschedule here would resurrect a loop
                # the recovery path owns now.
                return
            batch = future.result() if future.exception() is None else None
            if not isinstance(batch, list) or not all(
                isinstance(event, dict) for event in batch
            ):
                # Either the poll failed, or the "batch" is not a list of
                # events — a mispaired pipelined reply after frame loss.
                # Both count as a poll failure.
                self._poll_failed(control_location)
                return
            self._publisher(control_location).poll_failures = 0
            if self.vsg.obs.enabled:
                self._m_poll_batch.observe(float(len(batch)))
            for event in batch:
                self._deliver_local(event)
            self._schedule_poll(control_location)

        self._bounded(poll_future, f"poll of {control_location}")\
            .add_done_callback(on_events)

    def _poll_failed(self, control_location: str) -> None:
        record = self._publisher(control_location)
        record.poll_failures += 1
        island = record.island
        if record.poll_failures < self.POLL_PRUNE_FAILURES or island is None:
            # Below the threshold, or of unknown provenance (the legacy
            # keep-trying behaviour): poll again.
            self._schedule_poll(control_location)
            return
        # The gateway may have left the VSR: polling a dead island burns a
        # round trip per interval forever.  Ask the registry, then
        # reschedule (or prune) the loop.
        generation = self._delivery_generation

        def on_registry(future: SimFuture) -> None:
            if self._polling_stopped or generation != self._delivery_generation:
                return
            if future.exception() is None and island not in future.result():
                self._forget_remote(control_location)
                return
            # A degraded (cached) read still listing the island keeps the
            # loop alive: a directory outage must not end event delivery.
            self._publisher(control_location).poll_failures = 0
            self._schedule_poll(control_location)

        self._bounded(
            self.vsg.vsr.list_gateways(), f"registry check for {control_location}"
        ).add_done_callback(on_registry)

    def _schedule_poll(self, control_location: str) -> None:
        record = self._publisher(control_location)
        if self._polling_stopped or record.channel is not None:
            # A channel owns delivery now (it may have opened while the
            # last poll was in flight).
            record.poll_timer = None
            return
        record.poll_timer = self.vsg.sim.schedule(
            self.vsg.poll_interval, self._poll, control_location
        )

    def _forget_remote(self, control_location: str) -> None:
        """Stop tracking a gateway that left the VSR: cancel its poll loop,
        reconnect timer and channel so a dead island costs nothing."""
        record = self._publishers.pop(control_location, None)
        if record is None:
            return
        _cancel(record.poll_timer, record.reconnect_timer)
        if record.channel is not None:
            record.channel.stop()

    # -- subscriber-side channel internals -------------------------------------

    def _maybe_open_channel(self, control_location: str) -> None:
        record = self._publishers.get(control_location)
        if self._polling_stopped or record is None or record.island is None:
            return
        if record.channel is not None or record.reconnect_timer is not None:
            return
        channel = self.vsg.protocol.open_event_channel(
            control_location,
            self.vsg.island,
            on_batch=lambda batch, events, loc=control_location: (
                self._on_channel_batch(loc, batch, events)
            ),
            on_dead=lambda exc, loc=control_location: (
                self._on_channel_dead(loc, exc)
            ),
            initial_ack=record.channel_ack,
        )
        if channel is None:
            return  # this island polls; the poll loop stays
        record.channel = channel
        # Shutdown stops channels in the order they opened.
        self._publishers[control_location] = self._publishers.pop(control_location)
        self.channel_clients.append(channel)
        self.channels_opened += 1
        _cancel(record.poll_timer)
        record.poll_timer = None
        tracer = self.vsg.obs.tracer
        if tracer.enabled:
            span = tracer.start_span(
                f"events.channel_open {record.island}",
                island=self.vsg.island,
                kind="client",
            )
            span.set_attribute("location", control_location)
            span.finish()
        channel.start()

    def _on_channel_batch(
        self, control_location: str, batch: int, events: list[dict[str, Any]]
    ) -> None:
        record = self._publisher(control_location)
        record.channel_attempts = 0
        record.channel_ack = max(record.channel_ack, batch)
        for event in events:
            self._deliver_local(event)
        if self.vsg.journal is not None and events:
            # Journaled *after* the delivery loop: a crash mid-batch
            # replays to the previous ack, so the publisher redelivers
            # the whole batch (at-least-once, never silently dropped).
            self.vsg.journal.log_channel_ack(control_location, record.channel_ack)

    def _on_channel_dead(self, control_location: str, exc: BaseException) -> None:
        record = self._publisher(control_location)
        record.channel = None
        if self._polling_stopped:
            return
        self.channel_deaths += 1
        attempt = record.channel_attempts
        record.channel_attempts = attempt + 1
        tracer = self.vsg.obs.tracer
        if tracer.enabled:
            span = tracer.start_span(
                "events.channel_death", island=self.vsg.island, kind="client"
            )
            span.set_attribute("location", control_location)
            span.finish(exc)
        # Fall back to the poll loop immediately — events keep flowing while
        # the channel re-establishes behind the resilience backoff.
        self._ensure_poll_loop(control_location)
        delay = min(
            self.CHANNEL_RETRY_CAP,
            self.vsg.resilience.backoff_delay(min(attempt, 7)),
        )
        record.reconnect_timer = self.vsg.sim.schedule(
            delay, self._retry_channel, control_location
        )

    def _retry_channel(self, control_location: str) -> None:
        self._publisher(control_location).reconnect_timer = None
        if self._polling_stopped:
            return
        self._maybe_open_channel(control_location)

    def on_island_unreachable(self, island: str) -> None:
        """Breaker opened for ``island``: its push channel (if any) rides a
        connection that just proved bad — kill it now so fallback polling
        and re-establishment start immediately instead of waiting out the
        channel watchdog."""
        for record in list(self._publishers.values()):
            if record.island == island and record.channel is not None:
                record.channel.kill(
                    TransportError(f"island {island} unreachable (breaker open)")
                )

    def stop_polling(self) -> None:
        self._polling_stopped = True
        # Parked waits answer empty, in the order they parked, so held
        # exchanges complete before the server goes down.
        for record in sorted(self._subscribers.values(), key=lambda r: r.parked):
            _cancel(record.flush_timer)
            record.flush_timer = None
            self._resolve_waiter(record, record.batch, [])
        for record in list(self._publishers.values()):
            _cancel(record.poll_timer, record.reconnect_timer)
            channel = record.channel
            record.poll_timer = record.reconnect_timer = record.channel = None
            if channel is not None:
                channel.stop()

    # -- cold crash / recovery --------------------------------------------------

    def on_crash(self) -> None:
        """Cold crash: every in-memory delivery structure dies with the
        process.  Timers are cancelled (a dead process runs nothing),
        parked waits are dropped un-resolved (the subscriber's channel
        watchdog notices the silence and falls back to polling, exactly
        as with a real crash), and the generation counter moves so any
        in-flight poll or registry callback from before the crash is
        inert when it lands."""
        self._delivery_generation += 1
        for subscriber in self._subscribers.values():
            _cancel(subscriber.flush_timer, subscriber.hold_timer)
        for publisher in list(self._publishers.values()):
            _cancel(publisher.poll_timer, publisher.reconnect_timer)
            if publisher.channel is not None:
                try:
                    publisher.channel.stop()
                except Exception:
                    pass  # teardown over a dead interface sends nothing
        self._subscribers.clear()
        self._publishers.clear()
        self._sequence = 0
        # _local_subs/_pattern_subs are code (the app's callback objects),
        # not journaled state, and survive in-process; the durability
        # probe sets are oracle bookkeeping that lives outside the crash.

    def restore(self, state: dict[str, Any]) -> None:
        """Reinstall the replayed WAL state (the publisher/subscriber
        records) without touching the wire."""
        self._sequence = int(state["sequence"])
        self._subscribers = {}
        # remote_subs first: its order is the fan-out order.
        for island, topics in state["remote_subs"].items():
            self._subscriber(island).topics = set(topics)
        for island, location in state["remote_locations"].items():
            self._subscriber(island).location = location
        for island, events in state["queues"].items():
            self._subscriber(island).queue = list(events)
        for island, (batch, events) in state["unacked"].items():
            self._subscriber(island).unacked = (int(batch), list(events))
        for island, batch in state["batch_seq"].items():
            self._subscriber(island).batch = int(batch)
        for location, batch in state["channel_acks"].items():
            self._publisher(location).channel_ack = int(batch)

    def resume_delivery(self, state: dict[str, Any]) -> None:
        """Subscriber-side rejoin: re-announce every journaled topic to
        every journaled remote gateway, restart poll loops, and let the
        announce completions reopen push channels (with the restored ack
        high-water, so redelivery starts exactly where delivery stopped)."""
        topics = sorted(state["local_topics"])
        for location, island in state["remote_gateways"].items():
            self._publisher(location).island = island
            if self.vsg.protocol.supports_push:
                continue
            if topics:
                self._announce(location, island, topics)
            else:
                self._ensure_poll_loop(location)


class VirtualServiceGateway:
    """One island's gateway."""

    def __init__(
        self,
        island: str,
        node: Node,
        stack: TransportStack,
        protocol: GatewayProtocol,
        vsr: VsrClient,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        policy: CallPolicy | None = None,
        obs: Any = None,
    ) -> None:
        self.island = island
        self.node = node
        self.stack = stack
        self.sim = stack.sim
        self.protocol = protocol
        self.vsr = vsr
        self.poll_interval = poll_interval
        self.policy = policy or CallPolicy()
        self.obs = obs if obs is not None else NOOP_OBS
        metrics = self.obs.metrics
        metrics.track(
            f"vsg.{island}",
            self,
            "counter",
            (
                "calls_out",
                "calls_in",
                "calls_local",
                "stale_refreshes",
                "cold_crashes",
                "recoveries",
            ),
        )
        reactor = stack.reactor
        metrics.track(f"reactor.{island}", reactor, "counter", reactor.COUNTERS)
        metrics.track(f"reactor.{island}", reactor, "gauge", ["parked"])
        self._m_latency = metrics.histogram(f"vsg.{island}.call_latency")
        self.resilience = ResilientExecutor(
            self.sim, self.policy, obs=self.obs, label=island
        )
        self.heartbeat = HeartbeatMonitor(self)
        self._local: dict[str, tuple[ServiceInterface, LocalHandler]] = {}
        #: Durable WAL journal (``repro.store.GatewayJournal``) — ``None``
        #: by default, in which case every journaling call site below is
        #: skipped and behaviour (and the wire) is byte-identical to a
        #: gateway without persistence.
        self.journal: Any = None
        #: ``listener()`` on cold crash / ``listener(state)`` after WAL
        #: replay — rule engines hang their dedup durability off these.
        self.crash_listeners: list[Callable[[], None]] = []
        self.recovery_listeners: list[Callable[[dict[str, Any]], None]] = []
        self.cold_crashes = 0
        self.recoveries = 0
        self.events = EventRouter(self)
        #: island -> last known interchange location, for pooled-connection
        #: eviction when that island's circuit breaker opens.
        self._island_locations: dict[str, str] = {}
        self.resilience.add_open_listener(self._on_breaker_open)
        self._next_call_id = 1
        self.calls_out = 0
        self.calls_in = 0
        self.calls_local = 0
        self.stale_refreshes = 0
        self._paused = False
        self._pause_queue: list[tuple[ServiceCall, SimFuture]] = []
        protocol.start(self)
        self.heartbeat.start()

    # -- exporting (Client Proxy side of the PCM) ----------------------------------

    def export_service(
        self,
        name: str,
        interface: ServiceInterface,
        handler: LocalHandler,
        context: dict[str, str] | None = None,
    ) -> SimFuture:
        """Register a local service and publish its WSDL to the VSR."""
        if self.down:
            raise GatewayError(f"island {self.island!r} gateway is down")
        if name in self._local:
            raise GatewayError(f"island {self.island!r} already exports {name!r}")
        if interface.name != name:
            # The export name is authoritative: republish the interface
            # under it so the VSR entry and the dispatch table agree.
            interface = ServiceInterface(name, interface.operations)
        self._local[name] = (interface, handler)
        full_context = {"island": self.island, "protocol": self.protocol.name}
        full_context.update(context or {})
        document = interface.to_wsdl(self.protocol.location(name), full_context)
        if self.journal is not None:
            self.journal.log_export(name, document.to_xml().decode("utf-8"))
        return self.vsr.publish(document)

    def withdraw_service(self, name: str) -> SimFuture:
        if self.down:
            raise GatewayError(f"island {self.island!r} gateway is down")
        self._local.pop(name, None)
        if self.journal is not None:
            self.journal.log_withdraw(name)
        return self.vsr.withdraw(name)

    @property
    def exported_services(self) -> list[str]:
        return sorted(self._local)

    # -- inbound (the protocol's server side calls this) -----------------------------

    def dispatch_local(self, call: ServiceCall) -> SimFuture:
        """Execute a neutral call against a locally exported service."""
        self.calls_in += 1
        tracer = self.obs.tracer
        span = NULL_SPAN
        if tracer.enabled:
            # Join the caller's trace: explicit context on the call (set by
            # invoke() or re-attached from X-Trace), else the ambient span
            # (the SOAP server span).  Never start a fresh root here —
            # untraced polls and heartbeats must stay untraced.
            parent = call.trace or tracer.current()
            if parent is not None:
                span = tracer.start_span(
                    f"vsg.dispatch {call.service}.{call.operation}",
                    island=self.island,
                    kind="server",
                    parent=parent,
                )
        if self._paused:
            # A paused gateway is alive but unresponsive: the call parks
            # until resume() and the *caller's* deadline decides its fate.
            if span.recording:
                span.annotate("gateway paused; call parked")
            parked: SimFuture = SimFuture()
            self._pause_queue.append((call, parked))
            if span.recording:
                parked.add_done_callback(lambda f: span.finish(f.exception()))
            return parked
        result = self._dispatch_now(call, span)
        if span.recording:
            result.add_done_callback(lambda f: span.finish(f.exception()))
        return result

    def _dispatch_now(self, call: ServiceCall, span: Any = NULL_SPAN) -> SimFuture:
        entry = self._local.get(call.service)
        if entry is None:
            return SimFuture.failed(
                ServiceNotFoundError(
                    f"island {self.island!r} exports no service {call.service!r}"
                )
            )
        interface, handler = entry
        try:
            operation = interface.operation(call.operation)
            checked_args = values.check_args(operation, call.args)
            if span.recording:
                # The dispatch span is ambient while the native handler
                # runs, so PCM-level spans (e.g. the X10 power-line write)
                # nest here.
                with self.obs.tracer.activate(span):
                    outcome = handler(call.operation, checked_args)
            else:
                outcome = handler(call.operation, checked_args)
        except Exception as exc:
            return SimFuture.failed(exc)
        if isinstance(outcome, SimFuture):
            return outcome.then(partial(values.check_result, operation))
        try:
            return SimFuture.completed(values.check_result(operation, outcome))
        except ConversionError as exc:
            return SimFuture.failed(exc)

    # -- outbound ------------------------------------------------------------

    def invoke(self, service: str, operation: str, args: list[Any]) -> SimFuture:
        """Call ``service.operation(*args)`` wherever it lives.

        Local services short-circuit (still through the neutral validation
        path).  Remote services are resolved through the VSR; a stale cache
        entry gets one retry after invalidation.
        """
        if self.down:
            # Even local calls fail while the process is cold-down: there
            # is no gateway to short-circuit through.
            return SimFuture.failed(
                GatewayError(f"island {self.island!r} gateway is down")
            )
        tracer = self.obs.tracer
        span = (
            tracer.start_span(
                f"vsg.invoke {service}.{operation}", island=self.island, kind="client"
            )
            if tracer.enabled
            else NULL_SPAN
        )
        # With observability off nothing below calls into repro.obs.
        recording = span.recording
        call = ServiceCall(
            service=service,
            operation=operation,
            args=args,
            source_island=self.island,
            call_id=self._next_call_id,
            trace=span.context if recording else None,
        )
        self._next_call_id += 1
        local = service in self._local
        if local:
            self.calls_local += 1
        if recording:
            if local:
                span.set_attribute("target", "local")
            with tracer.activate(span):
                result = (
                    self.dispatch_local(call)
                    if local
                    else self._invoke_remote(call, retried=False, span=span)
                )
        elif local:
            result = self.dispatch_local(call)
        else:
            result = self._invoke_remote(call, retried=False, span=span)
        if self.obs.enabled:
            result.add_done_callback(partial(self._invoked, span, self.sim.now))
        return result

    def _invoked(self, span: Any, started: float, future: SimFuture) -> None:
        self._m_latency.observe(self.sim.now - started)
        span.finish(future.exception())

    def _invoke_remote(
        self, call: ServiceCall, retried: bool, span: Any = NULL_SPAN
    ) -> SimFuture:
        self.calls_out += 1
        remote = _RemoteCall(self, call, retried, span)
        self.vsr.find_by_name(call.service).add_done_callback(remote.resolved)
        return remote.result

    # -- events ------------------------------------------------------------

    def publish_event(self, topic: str, payload: Any) -> None:
        if self.down:
            return  # fire-and-forget into a dead process goes nowhere
        self.events.publish(topic, payload)

    def subscribe(self, topic: str, callback: EventCallback) -> SimFuture:
        """Subscribe to one topic: :meth:`subscribe_many` of ``[topic]``."""
        return self.subscribe_many([topic], callback)

    def subscribe_many(self, topics: list[str], callback: EventCallback) -> SimFuture:
        """Subscribe to ``topics`` on every island with one announcement
        per remote gateway (:meth:`EventRouter.subscribe_many`)."""
        if self.down:
            raise GatewayError(f"island {self.island!r} gateway is down")
        return self.events.subscribe_many(topics, callback)

    # -- resilience ------------------------------------------------------------

    def _on_breaker_open(self, island: str) -> None:
        """A circuit breaker opening means the island is unreachable: evict
        any pooled interchange connection so the half-open probe (and
        everything after) starts from a fresh handshake."""
        location = self._island_locations.get(island)
        if location:
            self.protocol.invalidate_location(location)
        self.events.on_island_unreachable(island)

    def pause(self) -> None:
        """Stop answering inbound calls (they park) without dropping frames:
        the fault injector's model of a wedged-but-connected gateway."""
        self._paused = True

    def resume(self) -> None:
        """Process every call parked while paused, in arrival order."""
        self._paused = False
        parked, self._pause_queue = self._pause_queue, []
        for call, future in parked:
            self._dispatch_now(call).relay(future)

    # -- lifecycle ------------------------------------------------------------

    def register_with_directory(self) -> SimFuture:
        location = self.protocol.control_location()
        future = self.vsr.register_gateway(self.island, location)
        if self.journal is not None:

            def on_registered(done: SimFuture) -> None:
                # Journal only a *confirmed* registration; renewed_at is
                # the lease stamp a re-registration renews.
                if done.exception() is None and self.journal is not None:
                    self.journal.log_register(self.island, location, self.sim.now)

            future.add_done_callback(on_registered)
        return future

    def unregister_with_directory(self) -> SimFuture:
        """Remove this gateway from the VSR registry, so peers stop
        announcing subscriptions to it and prune their poll loops."""
        future = self.vsr.unregister_gateway(self.island)
        if self.journal is not None:

            def on_unregistered(done: SimFuture) -> None:
                if done.exception() is None and self.journal is not None:
                    self.journal.log_unregister()

            future.add_done_callback(on_unregistered)
        return future

    # -- durable state (cold crash / recovery) ---------------------------------

    def attach_journal(self, journal: Any) -> None:
        """Opt this gateway into durable state.  Everything journaled from
        here on; without a journal the gateway keeps the historical warm
        restart semantics (and a byte-identical wire)."""
        self.journal = journal

    @property
    def down(self) -> bool:
        """True while a cold crash has this gateway's process stopped
        (journal attached and its store closed).  Warm crashes — no
        journal — only drop the interfaces, so ``down`` stays False."""
        return self.journal is not None and self.journal.store.closed

    def add_crash_listener(self, listener: Callable[[], None]) -> None:
        self.crash_listeners.append(listener)

    def add_recovery_listener(
        self, listener: Callable[[dict[str, Any]], None]
    ) -> None:
        self.recovery_listeners.append(listener)

    def on_crash(self) -> None:
        """Cold crash (fault injector, after ``node.crash()``): the store
        closes mid-write exactly where the WAL tail stands, and every piece
        of journaled in-memory state is wiped — what ``recover`` rebuilds
        must come from the WAL alone."""
        if self.journal is None:
            return
        self.cold_crashes += 1
        self.journal.store.close()
        self.events.on_crash()
        # The process's sockets die with it: established connections and
        # pending connects vanish (no frames — the interfaces are down),
        # so peers get RST on their next send instead of feeding replies
        # into a stale FIFO.  Listeners survive as the reborn process's
        # port bindings.
        self.stack.reboot()
        self.vsr.forget_caches()
        for listener in list(self.crash_listeners):
            listener()

    def recover(self) -> dict[str, Any]:
        """Cold-restart rejoin (fault injector, after ``node.restart()``):
        reopen the store, replay the WAL into a state snapshot, reinstall
        it, re-announce to the directory, and resume event delivery —
        push channels reopen through the re-announce path (or the poll
        loops carry on) and retained unacked batches are redelivered.
        Returns the replayed state (tests inspect it)."""
        if self.journal is None:
            return {}
        self.recoveries += 1
        self.journal.store.reopen()
        state = self.journal.replay()
        self.events.restore(state)
        if state["registered"] is not None:
            # Re-registering renews the lease and re-lists us for peers.
            self.register_with_directory()
        for service in sorted(state["documents"]):
            # Republish straight through the client: export_service already
            # journaled the document, so no new WAL records are written.
            self.vsr.publish(
                WsdlDocument.from_xml(state["documents"][service])
            )
        self.events.resume_delivery(state)
        for listener in list(self.recovery_listeners):
            listener(state)
        return state

    def shutdown(self) -> None:
        self.heartbeat.stop()
        self.events.stop_polling()
        self.protocol.stop()


class _RemoteCall:
    """One :meth:`VirtualServiceGateway._invoke_remote`: the directory
    lookup, the call under the gateway's resilience policy, and the one
    stale-location retry, as methods over a record.  The closures this
    replaces named each other, so every bridged call left a reference
    cycle to the collector; a record is freed by reference counting."""

    __slots__ = ("vsg", "call", "retried", "span", "lookup", "location", "result")

    def __init__(
        self, vsg: "VirtualServiceGateway", call: ServiceCall, retried: bool, span: Any
    ) -> None:
        self.vsg = vsg
        self.call = call
        self.retried = retried
        self.span = span
        tracer = vsg.obs.tracer
        self.lookup = (
            tracer.start_span(
                f"vsr.lookup {call.service}", island=vsg.island, parent=call.trace
            )
            if tracer.enabled and call.trace is not None
            else NULL_SPAN
        )
        #: The service's gateway location, once the directory answered.
        self.location = ""
        self.result = SimFuture()

    def resolved(self, future: SimFuture) -> None:
        """The directory answered the lookup."""
        lookup = self.lookup
        exc = future.exception()
        if exc is not None:
            if lookup.recording:
                lookup.finish(exc)
            self.result.set_exception(exc)
            return
        document: WsdlDocument = future.result()
        self.location = document.location
        target = document.context.get("island") or document.location
        if lookup.recording:
            lookup.set_attribute("target", target)
            lookup.finish()
        vsg = self.vsg
        vsg._island_locations[target] = document.location
        vsg.resilience.execute(target, self.attempt, span=self.span).add_done_callback(
            self.called
        )

    def attempt(self) -> SimFuture:
        return self.vsg.protocol.call_remote(self.location, self.call)

    def called(self, done: SimFuture) -> None:
        """The call settled, every attempt the policy allows made."""
        exc = done.exception()
        if exc is None:
            self.result.set_result(done.result())
            return
        vsg = self.vsg
        if is_connectivity_failure(exc):
            # The path (not the service) failed: any pooled keep-alive
            # connection to that endpoint is suspect and must not serve
            # the retry.
            vsg.protocol.invalidate_location(self.location)
        if not self.retried and not isinstance(exc, (ServiceNotFoundError, CircuitOpenError)):
            # The cached location may be stale: refresh and retry once.
            vsg.stale_refreshes += 1
            if self.span.recording:
                self.span.annotate(f"stale location; refreshing {self.call.service}")
            vsg.vsr.invalidate(self.call.service)
            vsg._invoke_remote(self.call, retried=True, span=self.span).relay(self.result)
            return
        self.result.set_exception(exc)
