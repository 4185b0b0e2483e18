"""The rule engine: firing state machine with at-least-once dedup.

Life of a firing::

    trigger occurs ──► dedup (occurrence key) ──► cooldown ──►
    conditions (sequential, short-circuit) ──► actions (parallel,
    best-effort) ──► Firing record + metrics

**Dedup.** The event interchange is at-least-once: push channels
redeliver unacked batches after a channel death, and polls fold unacked
batches back in.  Every trigger occurrence therefore carries a stable
key — ``evt:<island>:<sequence>`` for events (the publisher's stamp),
``sch:<trigger>:<n>`` for the n-th schedule occurrence — and the engine
keeps a bounded per-rule window of seen keys.  A duplicate key is
counted on ``rules_suppressed`` and never re-evaluates conditions or
re-runs actions.  The mark is placed *before* cooldown/condition checks:
an occurrence that was suppressed must stay suppressed when its
duplicate arrives later.

**Determinism.** Schedule occurrences are computed closed-form off the
engine's start epoch (see :class:`~repro.rules.triggers.ScheduleTrigger`)
and logged to ``schedule_log``, so the testkit oracle can recompute every
due instant exactly.

**Instrumentation** (per engine label, default the island name):
``rules.<label>.rules_fired`` / ``rules_suppressed`` / ``actions_failed``
counters and a ``rules.<label>.rule_latency`` histogram of trigger→
actions-complete latency (from the event's publish instant when the
trigger was an event, so it includes interchange transport).  Tracing
emits a ``rule.fire <name>`` span that the action invocations' client
spans nest under.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import FrameworkError
from repro.net.simkernel import SimFuture
from repro.obs import NULL_SPAN
from repro.rules.actions import Action, action_from_dict
from repro.rules.conditions import AllOf, Condition, condition_from_dict
from repro.rules.triggers import (
    EventTrigger,
    ScheduleTrigger,
    Trigger,
    trigger_from_dict,
)

#: Seen-key window per rule.  Redelivery horizons are short (one channel
#: death's worth of unacked events), so a bounded window is safe and keeps
#: long-running engines flat.
DEDUP_WINDOW = 512


@dataclass(frozen=True)
class Rule:
    """One declarative automation rule — pure data, canonically serializable."""

    name: str
    triggers: tuple[Trigger, ...]
    actions: tuple[Action, ...]
    conditions: tuple[Condition, ...] = ()
    cooldown: float = 0.0
    enabled: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise FrameworkError("a rule needs a name")
        if not self.triggers:
            raise FrameworkError(f"rule {self.name!r} has no triggers")
        if not self.actions:
            raise FrameworkError(f"rule {self.name!r} has no actions")
        if self.cooldown < 0:
            raise FrameworkError(f"rule {self.name!r} cooldown must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "triggers": [t.to_dict() for t in self.triggers],
            "conditions": [c.to_dict() for c in self.conditions],
            "actions": [a.to_dict() for a in self.actions],
        }
        if self.cooldown:
            data["cooldown"] = self.cooldown
        if not self.enabled:
            data["enabled"] = False
        if self.description:
            data["description"] = self.description
        return data

    def canonical_json(self) -> str:
        """Stable serialization: sorted keys, no whitespace variance."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def rule_from_dict(data: dict[str, Any]) -> Rule:
    """Inverse of :meth:`Rule.to_dict`."""
    return Rule(
        name=str(data["name"]),
        triggers=tuple(trigger_from_dict(t) for t in data.get("triggers", ())),
        conditions=tuple(condition_from_dict(c) for c in data.get("conditions", ())),
        actions=tuple(action_from_dict(a) for a in data.get("actions", ())),
        cooldown=float(data.get("cooldown", 0.0)),
        enabled=bool(data.get("enabled", True)),
        description=str(data.get("description", "")),
    )


@dataclass
class FiringContext:
    """What conditions and actions see while a rule fires."""

    engine: "RuleEngine"
    rule: Rule
    event: dict[str, Any] | None
    key: str
    fired_at: float

    @property
    def gateway(self) -> Any:
        return self.engine.gateway


@dataclass
class Firing:
    """Record of one rule firing (only rules that passed their conditions)."""

    rule: str
    key: str
    trigger_kind: str
    fired_at: float
    topic: str | None = None
    completed_at: float | None = None
    latency: float | None = None
    actions_ok: int = 0
    actions_failed: int = 0
    results: list[Any] = field(default_factory=list)


class RuleEngine:
    """Evaluates rules against one island's gateway."""

    def __init__(self, gateway: Any, obs: Any = None, label: str | None = None) -> None:
        self.gateway = gateway
        self.sim = gateway.sim
        self.obs = obs if obs is not None else gateway.obs
        self.label = label or gateway.island
        self._m_latency = self.obs.metrics.histogram(f"rules.{self.label}.rule_latency")
        self._rules: dict[str, Rule] = {}
        self._seen: dict[str, OrderedDict[str, bool]] = {}
        self._last_fired: dict[str, float] = {}
        self._subscribed: set[str] = set()
        self._timers: list[Any] = []
        self._running = False
        self._manual_seq = 0
        self.epoch = 0.0
        self.fired_count = 0
        self.suppressed_count = 0
        self.actions_failed_count = 0
        self.obs.metrics.track(
            f"rules.{self.label}",
            self,
            "counter",
            {
                "rules_fired": "fired_count",
                "rules_suppressed": "suppressed_count",
                "actions_failed": "actions_failed_count",
            },
        )
        #: Completed-condition firings, oldest first (diagnostics + oracles).
        self.firings: list[Firing] = []
        #: One entry per schedule occurrence: rule, trigger index, n, the
        #: closed-form due instant, and when the engine actually ran it.
        self.schedule_log: list[dict[str, Any]] = []
        self._firing_listeners: list[Any] = []
        #: Durable WAL journal shared with the gateway (``None`` = the
        #: historical in-memory dedup, wiped by a cold restart).
        self._journal: Any = None

    def attach_journal(self, journal: Any) -> None:
        """Make the dedup windows durable: seen keys, last-fired stamps
        and the schedule epoch are journaled to the gateway's WAL, wiped
        on a cold crash, and restored on recovery — so an event the
        interchange redelivers *across* a restart is still deduplicated
        and never double-fires a rule.  Call before :meth:`start` and
        after ``gateway.attach_journal``."""
        self._journal = journal
        self.gateway.add_crash_listener(self._on_gateway_crash)
        self.gateway.add_recovery_listener(self._on_gateway_recovery)

    def _on_gateway_crash(self) -> None:
        # The dedup windows and armed schedule timers are process memory:
        # both die with the process.  A timer left running would fire
        # during the down window and append to the closed WAL.
        self._seen = {name: OrderedDict() for name in self._rules}
        self._last_fired.clear()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    def _on_gateway_recovery(self, state: dict[str, Any]) -> None:
        entry = state.get("rules", {}).get(self.label)
        if entry is not None:
            for rule_name, key in entry["seen"]:
                seen = self._seen.setdefault(rule_name, OrderedDict())
                seen[key] = True
                while len(seen) > DEDUP_WINDOW:
                    seen.popitem(last=False)
            self._last_fired.update(entry["last_fired"])
            if entry["epoch"] is not None:
                # The closed-form schedule arithmetic keys off the epoch;
                # the journaled one keeps occurrence indices stable across
                # restarts.
                self.epoch = float(entry["epoch"])
        if self._running:
            # Re-arm schedule triggers against the (restored) epoch: the
            # first occurrence index is computed from now, so occurrences
            # due while the process was dead are skipped, never replayed.
            for rule in self._rules.values():
                self._arm_rule(rule)

    def add_firing_listener(self, listener: Any) -> None:
        """``listener(firing)`` on every appended :class:`Firing` — the
        flight recorder's feed.  Listeners must not publish or fire rules."""
        self._firing_listeners.append(listener)

    # -- rule management -----------------------------------------------------

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(self._rules.values())

    def add_rule(self, rule: Rule) -> None:
        if rule.name in self._rules:
            raise FrameworkError(f"engine already has a rule named {rule.name!r}")
        self._rules[rule.name] = rule
        self._seen[rule.name] = OrderedDict()
        if self._running:
            self._subscribe([rule])
            self._arm_rule(rule)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> SimFuture:
        """Arm the engine: subscribe event triggers, schedule timers.

        Every event-trigger topic is announced in one ``subscribe_many``.
        The returned future resolves (to ``None``, failed or not) once the
        interchange has answered it.  The start instant becomes the
        schedule epoch.
        """
        if self._running:
            return SimFuture.completed(None)
        self._running = True
        self.epoch = self.sim.now
        if self._journal is not None:
            self._journal.log_rule_epoch(self.label, self.epoch)
        subscribed = self._subscribe(self._rules.values())
        for rule in self._rules.values():
            self._arm_rule(rule)
        result: SimFuture = SimFuture()
        subscribed.add_done_callback(lambda _: result.set_result(None))
        return result

    def stop(self) -> None:
        """Disarm: cancel timers and ignore further event deliveries."""
        self._running = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    # -- firing --------------------------------------------------------------

    def fire(self, name: str, event: dict[str, Any] | None = None) -> SimFuture:
        """Fire a rule by hand (scene buttons, tests).

        Manual firings get a unique occurrence key, so they are never
        deduplicated against each other; conditions and cooldown still
        apply.  Resolves to the :class:`Firing`, or ``None`` if
        suppressed.
        """
        rule = self._rules.get(name)
        if rule is None:
            return SimFuture.failed(FrameworkError(f"no rule named {name!r}"))
        self._manual_seq += 1
        return self._fire(rule, event, f"manual:{self._manual_seq}", "manual")

    def count_action_failure(self) -> None:
        """Called by composite actions for per-device failures."""
        self.actions_failed_count += 1

    # -- event plumbing ------------------------------------------------------

    def _subscribe(self, rules: Iterable[Rule]) -> SimFuture:
        """Announce the event-trigger topics of ``rules`` not subscribed
        yet, all in one ``subscribe_many``."""
        from repro.core.vsg import FullEventCallback

        topics: list[str] = []
        for rule in rules:
            for trigger in rule.triggers:
                if not isinstance(trigger, EventTrigger):
                    continue
                if trigger.topic not in self._subscribed:
                    self._subscribed.add(trigger.topic)
                    topics.append(trigger.topic)
        return self.gateway.events.subscribe_many(
            topics, FullEventCallback(self._on_event)
        )

    def _on_event(self, event: dict[str, Any]) -> None:
        if not self._running:
            return
        key = f"evt:{event['island']}:{event['sequence']}"
        for rule in list(self._rules.values()):
            for trigger in rule.triggers:
                if isinstance(trigger, EventTrigger) and trigger.matches(event):
                    self._fire(rule, event, key, "event")
                    break  # one firing per rule per occurrence

    # -- schedule plumbing ---------------------------------------------------

    def _arm_rule(self, rule: Rule) -> None:
        for index, trigger in enumerate(rule.triggers):
            if isinstance(trigger, ScheduleTrigger):
                n = trigger.first_occurrence_index(self.epoch, self.sim.now)
                self._arm_occurrence(rule, index, trigger, n)

    def _arm_occurrence(
        self, rule: Rule, index: int, trigger: ScheduleTrigger, n: int
    ) -> None:
        due = trigger.occurrence(self.epoch, n)
        timer = self.sim.schedule(
            max(0.0, due - self.sim.now), self._on_schedule, rule.name, index, n, due
        )
        self._timers.append(timer)

    def _on_schedule(self, name: str, index: int, n: int, due: float) -> None:
        if not self._running:
            return
        rule = self._rules.get(name)
        if rule is None:
            return
        trigger = rule.triggers[index]
        self.schedule_log.append(
            {"rule": name, "trigger": index, "n": n, "due": due, "fired_at": self.sim.now}
        )
        self._fire(rule, None, f"sch:{index}:{n}", "schedule")
        if trigger.repeat:
            self._arm_occurrence(rule, index, trigger, n + 1)

    # -- the firing state machine --------------------------------------------

    def _fire(
        self, rule: Rule, event: dict[str, Any] | None, key: str, trigger_kind: str
    ) -> SimFuture:
        now = self.sim.now
        if not rule.enabled:
            self.suppressed_count += 1
            return SimFuture.completed(None)
        seen = self._seen[rule.name]
        if key in seen:
            self.suppressed_count += 1
            return SimFuture.completed(None)
        # Mark before cooldown/conditions: a suppressed occurrence must
        # stay suppressed when the interchange redelivers it.
        seen[key] = True
        if self._journal is not None:
            self._journal.log_rule_seen(self.label, rule.name, key)
        while len(seen) > DEDUP_WINDOW:
            seen.popitem(last=False)
        last = self._last_fired.get(rule.name)
        if rule.cooldown > 0 and last is not None and now < last + rule.cooldown:
            self.suppressed_count += 1
            return SimFuture.completed(None)

        tracer = self.obs.tracer
        span = (
            tracer.start_span(
                f"rule.fire {rule.name}", island=self.gateway.island, kind="client"
            )
            if tracer.enabled
            else NULL_SPAN
        )
        if span.recording:
            span.set_attribute("trigger", trigger_kind)
            span.set_attribute("key", key)
            if event is not None:
                span.set_attribute("topic", event["topic"])

        ctx = FiringContext(engine=self, rule=rule, event=event, key=key, fired_at=now)
        result: SimFuture = SimFuture()

        def on_conditions(done: SimFuture) -> None:
            exc = done.exception()
            if exc is not None or not done.result():
                # Condition error fails safe: the rule stays quiet.
                self.suppressed_count += 1
                if span.recording:
                    span.annotate("conditions not met")
                span.finish(exc)
                result.set_result(None)
                return
            self._run_actions(ctx, span, trigger_kind, result)

        with tracer.activate(span):
            AllOf(rule.conditions).evaluate(ctx).add_done_callback(on_conditions)
        return result

    def _run_actions(
        self, ctx: FiringContext, span: Any, trigger_kind: str, result: SimFuture
    ) -> None:
        rule, event = ctx.rule, ctx.event
        self.fired_count += 1
        self._last_fired[rule.name] = ctx.fired_at
        if self._journal is not None:
            self._journal.log_rule_fired(self.label, rule.name, ctx.fired_at)
        firing = Firing(
            rule=rule.name,
            key=ctx.key,
            trigger_kind=trigger_kind,
            fired_at=ctx.fired_at,
            topic=event["topic"] if event is not None else None,
        )
        self.firings.append(firing)
        for listener in self._firing_listeners:
            listener(firing)
        # Latency is trigger→actions-complete: for event triggers it starts
        # at the publisher's stamp, so interchange transport is included.
        started = (
            float(event["published_at"])
            if event is not None and "published_at" in event
            else ctx.fired_at
        )
        pending = 1  # registration token (see ContextSweepAction)

        def finish_if_drained() -> None:
            if pending == 0:
                firing.completed_at = self.sim.now
                firing.latency = self.sim.now - started
                self._m_latency.observe(firing.latency)
                span.finish()
                result.set_result(firing)

        tracer = self.obs.tracer
        for action in rule.actions:
            pending += 1

            def on_action(done: SimFuture) -> None:
                nonlocal pending
                if done.exception() is None:
                    firing.actions_ok += 1
                    firing.results.append(done.result())
                else:
                    firing.actions_failed += 1
                    firing.results.append({"error": str(done.exception())})
                    self.count_action_failure()
                pending -= 1
                finish_if_drained()

            with tracer.activate(span):
                try:
                    future = action.perform(ctx)
                except Exception as exc:
                    future = SimFuture.failed(exc)
            future.add_done_callback(on_action)
        pending -= 1
        finish_if_drained()
