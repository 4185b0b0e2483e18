"""Rule conditions: predicates gating a triggered firing.

A condition's :meth:`~Condition.evaluate` receives the
:class:`~repro.rules.engine.FiringContext` and resolves a
:class:`~repro.net.simkernel.SimFuture` to a boolean.  Conditions that
consult remote state (VSR lookups, bridged service reads) go through the
gateway's ordinary resilient paths; a condition that *errors* (directory
unreachable, breaker open) counts as False — a rule should fail safe,
not crash the engine — and the firing records the exception.

All concrete conditions are frozen dataclasses with canonical
``to_dict``/:func:`condition_from_dict` serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.vsr import too_few_seen
from repro.errors import FrameworkError
from repro.net.simkernel import SimFuture

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rules.engine import FiringContext

#: Comparison operators a value condition may apply.
COMPARATORS = {
    "eq": lambda actual, expected: actual == expected,
    "ne": lambda actual, expected: actual != expected,
    "lt": lambda actual, expected: actual < expected,
    "le": lambda actual, expected: actual <= expected,
    "gt": lambda actual, expected: actual > expected,
    "ge": lambda actual, expected: actual >= expected,
    "contains": lambda actual, expected: expected in actual,
    "truthy": lambda actual, expected: bool(actual),
}


def _compare(op: str, actual: Any, expected: Any) -> bool:
    try:
        return bool(COMPARATORS[op](actual, expected))
    except KeyError:
        raise FrameworkError(f"unknown comparison operator {op!r}") from None
    except TypeError:
        return False  # incomparable types: the predicate simply fails


class Condition:
    """Marker base class; concrete conditions are frozen dataclasses."""

    kind = "abstract"

    def evaluate(self, ctx: "FiringContext") -> SimFuture:
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class PayloadCondition(Condition):
    """Predicate on the triggering event's payload (no round trip).

    ``key`` selects a field of a dict payload ("" = the payload itself);
    missing keys and schedule-triggered firings (no event) evaluate
    False rather than erroring.
    """

    key: str
    op: str = "truthy"
    value: Any = None

    kind = "payload"

    def evaluate(self, ctx: "FiringContext") -> SimFuture:
        if ctx.event is None:
            return SimFuture.completed(False)
        payload = ctx.event.get("payload")
        if self.key:
            if not isinstance(payload, dict) or self.key not in payload:
                return SimFuture.completed(False)
            payload = payload[self.key]
        return SimFuture.completed(_compare(self.op, payload, self.value))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "key": self.key, "op": self.op, "value": self.value}


@dataclass(frozen=True)
class ServiceCondition(Condition):
    """Read bridged service state and compare the result.

    ``service.operation(*args)`` is invoked through the gateway's neutral
    call path (resilience applies), and the reply is compared with
    ``op``/``value``.
    """

    service: str
    operation: str
    args: tuple[Any, ...] = ()
    op: str = "truthy"
    value: Any = None

    kind = "service"

    def evaluate(self, ctx: "FiringContext") -> SimFuture:
        return ctx.gateway.invoke(self.service, self.operation, list(self.args)).then(
            lambda reply: _compare(self.op, reply, self.value)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "service": self.service,
            "operation": self.operation,
            "args": list(self.args),
            "op": self.op,
            "value": self.value,
        }


@dataclass(frozen=True)
class VsrCondition(Condition):
    """True when the VSR holds at least ``min_count`` services matching
    the context filter — "is there a camera in the hall right now".

    ``context`` is a sorted tuple of ``(key, value)`` pairs (canonical
    form of the filter dict).
    """

    context: tuple[tuple[str, str], ...]
    min_count: int = 1

    kind = "vsr"

    def evaluate(self, ctx: "FiringContext") -> SimFuture:
        def on_documents(documents: list) -> bool:
            # Too few matches from a directory that did not fully answer
            # is an error, not False: a negated rule must stay quiet.
            exc = too_few_seen(documents, self.min_count)
            if exc is not None:
                raise exc
            return len(documents) >= self.min_count

        return ctx.gateway.vsr.find(dict(self.context)).then(on_documents)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "context": [[k, v] for k, v in self.context],
            "min_count": self.min_count,
        }


@dataclass(frozen=True)
class MetricCondition(Condition):
    """Compare a live observability instrument's value.

    Reads the named counter or gauge (pushed or tracked) from the engine's
    metrics registry (``repro.obs``) without creating one; ``instrument``
    documents which it is.  A name nothing registered reads 0, and so
    does every pushed name with observability disabled (and every name
    under the shared ``NOOP_OBS``) — degraded-mode rules keyed on failure
    counters then simply stay quiet, which is the safe default.
    """

    name: str
    instrument: str = "counter"  # "counter" | "gauge"
    op: str = "ge"
    value: Any = 1

    kind = "metric"

    def evaluate(self, ctx: "FiringContext") -> SimFuture:
        actual = ctx.engine.obs.metrics.value(self.name)
        return SimFuture.completed(_compare(self.op, actual, self.value))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "instrument": self.instrument,
            "op": self.op,
            "value": self.value,
        }


@dataclass(frozen=True)
class AllOf(Condition):
    """Every child condition must hold (evaluated left to right,
    short-circuiting on the first False)."""

    conditions: tuple[Condition, ...]

    kind = "all"

    def evaluate(self, ctx: "FiringContext") -> SimFuture:
        return _evaluate_chain(ctx, list(self.conditions), require=True)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "conditions": [c.to_dict() for c in self.conditions]}


@dataclass(frozen=True)
class AnyOf(Condition):
    """At least one child condition must hold (short-circuits on True)."""

    conditions: tuple[Condition, ...]

    kind = "any"

    def evaluate(self, ctx: "FiringContext") -> SimFuture:
        return _evaluate_chain(ctx, list(self.conditions), require=False)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "conditions": [c.to_dict() for c in self.conditions]}


@dataclass(frozen=True)
class Not(Condition):
    """Negate a child condition."""

    condition: Condition

    kind = "not"

    def evaluate(self, ctx: "FiringContext") -> SimFuture:
        return self.condition.evaluate(ctx).then(lambda value: not value)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "condition": self.condition.to_dict()}


def _evaluate_chain(
    ctx: "FiringContext", conditions: list[Condition], require: bool
) -> SimFuture:
    """Sequential short-circuit evaluation: AND when ``require`` else OR."""
    result: SimFuture = SimFuture()
    if not conditions:
        result.set_result(require)  # empty AND is True, empty OR is False
        return result

    def step(index: int) -> None:
        if index >= len(conditions):
            result.set_result(require)
            return

        def on_value(done: SimFuture) -> None:
            exc = done.exception()
            if exc is not None:
                result.set_exception(exc)
                return
            value = bool(done.result())
            if value != require:  # False in AND / True in OR short-circuits
                result.set_result(value)
                return
            step(index + 1)

        conditions[index].evaluate(ctx).add_done_callback(on_value)

    step(0)
    return result


_CONDITION_KINDS = {
    "payload": lambda d: PayloadCondition(
        key=str(d.get("key", "")), op=str(d.get("op", "truthy")), value=d.get("value")
    ),
    "service": lambda d: ServiceCondition(
        service=str(d["service"]),
        operation=str(d["operation"]),
        args=tuple(d.get("args", ())),
        op=str(d.get("op", "truthy")),
        value=d.get("value"),
    ),
    "vsr": lambda d: VsrCondition(
        context=tuple(sorted((str(k), str(v)) for k, v in d.get("context", ()))),
        min_count=int(d.get("min_count", 1)),
    ),
    "metric": lambda d: MetricCondition(
        name=str(d["name"]),
        instrument=str(d.get("instrument", "counter")),
        op=str(d.get("op", "ge")),
        value=d.get("value", 1),
    ),
    "all": lambda d: AllOf(
        conditions=tuple(condition_from_dict(c) for c in d.get("conditions", ()))
    ),
    "any": lambda d: AnyOf(
        conditions=tuple(condition_from_dict(c) for c in d.get("conditions", ()))
    ),
    "not": lambda d: Not(condition=condition_from_dict(d["condition"])),
}


def condition_from_dict(data: dict[str, Any]) -> Condition:
    """Inverse of ``Condition.to_dict``."""
    kind = data.get("kind")
    builder = _CONDITION_KINDS.get(kind)
    if builder is None:
        raise FrameworkError(f"unknown condition kind {kind!r}")
    return builder(data)
