"""Dynamic service activation — the paper's other future-work item.

Section 4.2 reports the prototype could not do "dynamic service
activation" over SOAP/HTTP; Section 6 assigns it to the next
meta-middleware ("novel CORBA-based middleware which applies dynamic
service activation").  This module supplies that capability in a way that
composes with the existing framework: an :class:`ActivatableService` is a
drop-in VSG handler (same ``(operation, args)`` signature) wrapping a
*dormant* implementation that is instantiated on first use — the way a
CORBA POA servant activator, or a sleeping appliance woken by its PCM,
would behave.

Semantics:

- first call: pays ``activation_delay`` virtual seconds (device boot /
  servant instantiation), then runs; calls arriving *during* activation
  queue and run in order when it completes;
- subsequent calls: direct dispatch;
- optional ``idle_timeout``: with no calls for that long, the instance is
  discarded (``shutdown()`` is called if the implementation has one) and
  the service returns to dormancy.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.simkernel import Event, SimFuture, Simulator

DORMANT = "dormant"
ACTIVATING = "activating"
ACTIVE = "active"

#: A factory producing the live implementation object.
Factory = Callable[[], Any]


class ActivatableService:
    """A lazily activated service handler.

    Usable anywhere a VSG ``LocalHandler`` is: pass the instance itself as
    the handler to :meth:`VirtualServiceGateway.export_service` (or inside
    a PCM's discovery tuple).
    """

    def __init__(
        self,
        sim: Simulator,
        factory: Factory,
        activation_delay: float = 0.5,
        idle_timeout: float | None = None,
    ) -> None:
        self.sim = sim
        self.factory = factory
        self.activation_delay = activation_delay
        self.idle_timeout = idle_timeout
        self.state = DORMANT
        self._instance: Any = None
        self._waiting: list[tuple[str, list[Any], SimFuture]] = []
        self._idle_event: Event | None = None
        self.activations = 0
        self.deactivations = 0
        self.calls_served = 0

    # -- handler protocol ------------------------------------------------------

    def __call__(self, operation: str, args: list[Any]) -> SimFuture:
        if self.state == ACTIVE:
            return self._dispatch(operation, args)
        future: SimFuture = SimFuture()
        self._waiting.append((operation, list(args), future))
        if self.state == DORMANT:
            self.state = ACTIVATING
            self.sim.schedule(self.activation_delay, self._finish_activation)
        return future

    # -- lifecycle ------------------------------------------------------------

    def _finish_activation(self) -> None:
        self._instance = self.factory()
        self.state = ACTIVE
        self.activations += 1
        waiting, self._waiting = self._waiting, []
        for operation, args, future in waiting:
            self._dispatch(operation, args).relay(future)

    def _dispatch(self, operation: str, args: list[Any]) -> SimFuture:
        self.calls_served += 1
        self._touch()
        try:
            value = getattr(self._instance, operation)(*args)
        except Exception as exc:
            return SimFuture.failed(exc)
        if isinstance(value, SimFuture):
            return value
        return SimFuture.completed(value)

    def _touch(self) -> None:
        if self.idle_timeout is None:
            return
        if self._idle_event is not None:
            self._idle_event.cancel()
        self._idle_event = self.sim.schedule(self.idle_timeout, self._deactivate)

    def _deactivate(self) -> None:
        if self.state != ACTIVE:
            return
        shutdown = getattr(self._instance, "shutdown", None)
        if callable(shutdown):
            shutdown()
        self._instance = None
        self.state = DORMANT
        self.deactivations += 1

    # -- inspection ------------------------------------------------------------

    @property
    def instance(self) -> Any:
        """The live implementation, or None while dormant."""
        return self._instance
