"""Rule actions: what a firing does.

Actions run through the gateway's ordinary neutral call path, so the
resilience layer (deadlines, retries, circuit breakers) and tracing
apply exactly as they do to hand-written application calls.  Actions are
best-effort and independent: one failing device does not stop the others
(matching scene semantics), but every failure is counted on the engine's
``actions_failed`` metric and recorded on the firing.

Arguments may embed :class:`EventRef` placeholders that resolve against
the triggering event's payload at fire time, serialized canonically as
``{"$event": "<key>"}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.vsr import too_few_seen
from repro.errors import FrameworkError
from repro.net.simkernel import SimFuture
from repro.soap.wsdl import WsdlDocument

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rules.engine import FiringContext


@dataclass(frozen=True)
class EventRef:
    """Placeholder resolved from the triggering event at fire time.

    ``key`` names a field of the event payload; ``""`` means the whole
    payload.  On a schedule-triggered firing (no event) it resolves to
    ``None``.
    """

    key: str = ""

    def resolve(self, event: dict[str, Any] | None) -> Any:
        if event is None:
            return None
        if self.key in ("topic", "island"):
            return event[self.key]
        payload = event.get("payload")
        if not self.key:
            return payload
        if isinstance(payload, dict):
            return payload.get(self.key)
        return None


def _resolve_args(args: tuple[Any, ...], event: dict[str, Any] | None) -> list[Any]:
    return [a.resolve(event) if isinstance(a, EventRef) else a for a in args]


def _serialize_arg(arg: Any) -> Any:
    if isinstance(arg, EventRef):
        return {"$event": arg.key}
    return arg


def _deserialize_arg(arg: Any) -> Any:
    if isinstance(arg, dict) and set(arg) == {"$event"}:
        return EventRef(key=str(arg["$event"]))
    return arg


class Action:
    """Marker base class; concrete actions are frozen dataclasses."""

    kind = "abstract"

    def perform(self, ctx: "FiringContext") -> SimFuture:
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class InvokeAction(Action):
    """Invoke one bridged service operation."""

    service: str
    operation: str
    args: tuple[Any, ...] = ()

    kind = "invoke"

    def perform(self, ctx: "FiringContext") -> SimFuture:
        return ctx.gateway.invoke(
            self.service, self.operation, _resolve_args(self.args, ctx.event)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "service": self.service,
            "operation": self.operation,
            "args": [_serialize_arg(a) for a in self.args],
        }


@dataclass(frozen=True)
class PublishAction(Action):
    """Publish a framework event (e.g. a notification other rules or
    subscribers consume).  Payload dict values may be :class:`EventRef`."""

    topic: str
    payload: tuple[tuple[str, Any], ...] = ()

    kind = "publish"

    def perform(self, ctx: "FiringContext") -> SimFuture:
        payload = {
            key: (value.resolve(ctx.event) if isinstance(value, EventRef) else value)
            for key, value in self.payload
        }
        ctx.gateway.publish_event(self.topic, payload)
        return SimFuture.completed({"kind": "publish", "topic": self.topic})

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "topic": self.topic,
            "payload": [[k, _serialize_arg(v)] for k, v in self.payload],
        }


#: Preference tables a sweep may name instead of spelling operations out.
SWEEP_PRESETS = {
    "off": ("power_off", "turn_off", "stop", "stop_record", "stop_capture"),
    "on": ("power_on", "turn_on", "play", "start_capture"),
}


def pick_operation(document: WsdlDocument, candidates: tuple[str, ...]) -> str | None:
    """First operation in preference order the service actually exports."""
    for operation in candidates:
        if document.has_operation(operation):
            return operation
    return None


@dataclass(frozen=True)
class ContextSweepAction(Action):
    """The scene primitive: fan one command out by VSR context.

    Looks up every service matching ``context`` in the VSR, picks each
    service's first supported operation from ``operations`` (preference
    order), and invokes them all — best-effort, like
    :class:`~repro.apps.scenes.SceneController`.  Resolves to a summary::

        {"kind": "sweep", "invocations": [
            {"service": ..., "operation": ..., "island": ..., "ok": bool}, ...]}
    """

    context: tuple[tuple[str, str], ...]
    operations: tuple[str, ...]

    kind = "sweep"

    def perform(self, ctx: "FiringContext") -> SimFuture:
        result: SimFuture = SimFuture()

        def on_documents(done: SimFuture) -> None:
            # Nothing seen from a directory that did not fully answer is a
            # failed sweep, not an empty one.
            exc = done.exception() or too_few_seen(done.result(), 1)
            if exc is not None:
                result.set_exception(exc)
                return
            invocations: list[dict[str, Any]] = []
            # One registration token held while dispatching, so a locally
            # exported service completing synchronously mid-loop cannot
            # resolve the sweep before the remaining documents dispatch.
            pending = 1

            def finish_if_drained() -> None:
                if pending == 0:
                    result.set_result({"kind": "sweep", "invocations": invocations})

            for document in done.result():
                operation = pick_operation(document, self.operations)
                if operation is None:
                    continue
                record = {
                    "service": document.service,
                    "operation": operation,
                    "island": document.context.get("island", "?"),
                    "ok": False,
                }
                invocations.append(record)
                pending += 1

                def on_invoked(future: SimFuture, record: dict[str, Any] = record) -> None:
                    nonlocal pending
                    record["ok"] = future.exception() is None
                    if not record["ok"]:
                        ctx.engine.count_action_failure()
                    pending -= 1
                    finish_if_drained()

                ctx.gateway.invoke(document.service, operation, []).add_done_callback(
                    on_invoked
                )
            pending -= 1
            finish_if_drained()

        ctx.gateway.vsr.find(dict(self.context)).add_done_callback(on_documents)
        return result

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "context": [[k, v] for k, v in self.context],
            "operations": list(self.operations),
        }


def sweep_operations(spec: Any) -> tuple[str, ...]:
    """Resolve a preset name ("off"/"on") or explicit sequence of ops."""
    if isinstance(spec, str):
        try:
            return SWEEP_PRESETS[spec]
        except KeyError:
            raise FrameworkError(f"unknown sweep preset {spec!r}") from None
    return tuple(str(op) for op in spec)


def action_from_dict(data: dict[str, Any]) -> Action:
    """Inverse of ``Action.to_dict``."""
    kind = data.get("kind")
    if kind == "invoke":
        return InvokeAction(
            service=str(data["service"]),
            operation=str(data["operation"]),
            args=tuple(_deserialize_arg(a) for a in data.get("args", ())),
        )
    if kind == "publish":
        return PublishAction(
            topic=str(data["topic"]),
            payload=tuple(
                (str(k), _deserialize_arg(v)) for k, v in data.get("payload", ())
            ),
        )
    if kind == "sweep":
        return ContextSweepAction(
            context=tuple(sorted((str(k), str(v)) for k, v in data.get("context", ()))),
            operations=sweep_operations(data.get("operations", ())),
        )
    raise FrameworkError(f"unknown action kind {kind!r}")
