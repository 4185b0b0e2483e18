"""Arms a :class:`FaultPlan` on a simulated network.

Each action kind maps onto an existing seam of the substrate:

- :class:`LinkLoss` installs a seeded Bernoulli ``Segment.loss_model`` for
  the window, then restores whatever model was there before;
- :class:`LatencySpike` bumps ``Segment.propagation_delay``;
- :class:`Partition` installs a ``Segment.delivery_filter`` that only lets
  frames travel within a node group (broadcasts still reach same-side
  interfaces);
- :class:`NodeCrash` calls :meth:`Node.crash` / :meth:`Node.restart`;
- :class:`GatewayPause` parks a gateway's inbound dispatch until resume.

Window restorations are themselves simulator events, so a report read after
the run describes exactly what the run experienced.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import FaultInjectionError
from repro.faults.plan import (
    FaultPlan,
    FaultRecord,
    FaultReport,
    GatewayPause,
    LatencySpike,
    LinkLoss,
    NodeCrash,
    Partition,
    ScheduledFault,
)
from repro.net.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import MetaMiddleware
    from repro.net.frames import Frame
    from repro.net.node import Interface


class _BernoulliLoss:
    """Seeded per-frame drop model; counts what it did for the report."""

    def __init__(self, rate: float, seed: str, previous: Callable | None) -> None:
        self.rate = rate
        self.rng = random.Random(seed)
        self.previous = previous
        self.seen = 0
        self.dropped = 0

    def __call__(self, frame: "Frame") -> bool:
        if self.previous is not None and self.previous(frame):
            return True
        self.seen += 1
        if self.rng.random() < self.rate:
            self.dropped += 1
            return True
        return False


class _PartitionFilter:
    """Delivery filter for one partition window; chains like the loss model
    so overlapping windows unwind independently."""

    def __init__(self, group_of: dict[str, int], previous: Callable | None) -> None:
        self.group_of = group_of
        self.previous = previous

    def __call__(self, sender: "Interface", receiver: "Interface") -> bool:
        if self.previous is not None and not self.previous(sender, receiver):
            return False
        # Unlisted nodes share the implicit group -1.
        return self.group_of.get(sender.node.name, -1) == self.group_of.get(
            receiver.node.name, -1
        )


def _splice_out(head: Any, member: Any) -> Any:
    """Remove ``member`` from a ``.previous``-chained stack of models.

    Returns the new head.  Windows may overlap in either nesting order, so
    the member being removed is not necessarily the installed head: walk the
    chain and splice it out wherever it sits (a foreign model without a
    ``previous`` attribute ends the walk — we never unwind what we did not
    install).
    """
    if head is member:
        return member.previous
    current = head
    while current is not None:
        previous = getattr(current, "previous", None)
        if previous is member:
            current.previous = member.previous
            return head
        current = previous
    return head


class FaultInjector:
    """Schedules a plan's actions on the network's simulation kernel."""

    def __init__(
        self,
        network: Network,
        plan: FaultPlan,
        mm: "MetaMiddleware | None" = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.plan = plan
        self.mm = mm
        self._report = FaultReport(seed=plan.seed)
        self._armed = False
        #: ``on_fault(action, record)`` invoked after each injection lands
        #: — the testkit hooks flight-recorder dumps on crash actions.
        self.on_fault: "Any | None" = None

    # -- public API ---------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Validate every target now, then schedule all injections."""
        if self._armed:
            raise FaultInjectionError("fault plan already armed")
        self._armed = True
        for entry in self.plan.entries:
            self._validate(entry)
            self.sim.at(entry.time, self._apply, entry)
        return self

    def report(self) -> FaultReport:
        return self._report

    # -- validation ---------------------------------------------------------

    def _validate(self, entry: ScheduledFault) -> None:
        action = entry.action
        if isinstance(action, (LinkLoss, LatencySpike, Partition)):
            self.network.segment(action.segment)  # raises if unknown
        elif isinstance(action, NodeCrash):
            self.network.node(action.node)
        elif isinstance(action, GatewayPause):
            if self.mm is None:
                raise FaultInjectionError(
                    "GatewayPause needs a MetaMiddleware (pass mm= to the injector)"
                )
            self.mm.island(action.island)
        else:
            raise FaultInjectionError(f"unknown fault action {action!r}")

    # -- application --------------------------------------------------------

    def _apply(self, entry: ScheduledFault) -> None:
        record = FaultRecord(
            time=entry.time,
            kind=entry.action.kind,
            description=entry.action.describe(),
        )
        self._report.records.append(record)
        action = entry.action
        if isinstance(action, LinkLoss):
            self._apply_loss(entry, action, record)
        elif isinstance(action, LatencySpike):
            self._apply_spike(action, record)
        elif isinstance(action, Partition):
            self._apply_partition(action, record)
        elif isinstance(action, NodeCrash):
            self._apply_crash(action, record)
        elif isinstance(action, GatewayPause):
            self._apply_pause(action, record)
        if self.on_fault is not None:
            self.on_fault(action, record)

    def _apply_loss(
        self, entry: ScheduledFault, action: LinkLoss, record: FaultRecord
    ) -> None:
        segment = self.network.segment(action.segment)
        model = _BernoulliLoss(action.rate, self.plan.rng_seed(entry), segment.loss_model)
        segment.loss_model = model

        def restore() -> None:
            # Another injection may have stacked on top of us (windows can
            # overlap in either order): splice this model out of the chain
            # wherever it sits, leaving every other window armed.
            segment.loss_model = _splice_out(segment.loss_model, model)
            record.observed["frames_seen"] = model.seen
            record.observed["frames_dropped"] = model.dropped

        self.sim.schedule(action.duration, restore)

    def _apply_spike(self, action: LatencySpike, record: FaultRecord) -> None:
        segment = self.network.segment(action.segment)
        segment.propagation_delay += action.extra_delay

        def restore() -> None:
            segment.propagation_delay -= action.extra_delay
            record.observed["restored"] = 1

        self.sim.schedule(action.duration, restore)

    def _apply_partition(self, action: Partition, record: FaultRecord) -> None:
        segment = self.network.segment(action.segment)
        group_of: dict[str, int] = {}
        for index, group in enumerate(action.groups):
            for node_name in group:
                group_of[node_name] = index
        blocked_before = segment.frames_blocked
        same_side = _PartitionFilter(group_of, segment.delivery_filter)
        segment.delivery_filter = same_side

        def heal() -> None:
            segment.delivery_filter = _splice_out(segment.delivery_filter, same_side)
            record.observed["frames_blocked"] = (
                segment.frames_blocked - blocked_before
            )

        self.sim.schedule(action.duration, heal)

    def _apply_crash(self, action: NodeCrash, record: FaultRecord) -> None:
        node = self.network.node(action.node)
        crash_hook, recover_hook = self._cold_hooks(action.node)
        node.crash()
        if crash_hook is not None:
            crash_hook()
            record.observed["cold"] = 1
        record.observed["crashed_at"] = self.sim.now
        if action.restart_after is not None:

            def restart() -> None:
                node.restart()
                record.observed["restarted_at"] = self.sim.now
                if recover_hook is not None:
                    recover_hook()
                    record.observed["recovered_at"] = self.sim.now

            self.sim.schedule(action.restart_after, restart)

    def _cold_hooks(self, node_name: str) -> tuple[Any, Any]:
        """Cold crash/recover hooks for ``node_name``, or ``(None, None)``.

        A crash is *cold* only when the owning component carries a WAL
        journal: a gateway node (``gw-<island>``) whose VSG has one, or
        the directory node when the :class:`VsrDirectory` has one.  With
        no journal attached the historical warm-restart semantics (crash
        flips the interfaces, state survives in memory) are untouched.
        """
        if self.mm is None:
            return None, None
        if node_name == self.mm.directory_node.name:
            directory = self.mm.uddi.directory
            if directory.journal is not None:
                stack = self.mm.directory_stack

                def crash_directory() -> None:
                    directory.cold_crash()
                    stack.reboot()  # the process's sockets die with it

                return crash_directory, directory.cold_recover
            return None, None
        for island in self.mm.islands.values():
            gateway = island.gateway
            if gateway.node.name == node_name:
                if gateway.journal is not None:
                    return gateway.on_crash, gateway.recover
                return None, None
        return None, None

    def _apply_pause(self, action: GatewayPause, record: FaultRecord) -> None:
        gateway = self.mm.island(action.island).gateway
        gateway.pause()

        def resume() -> None:
            gateway.resume()
            record.observed["resumed_at"] = self.sim.now

        self.sim.schedule(action.duration, resume)
