"""Read-only views of an :class:`~repro.core.vsg.EventRouter`'s per-peer
records, so tests name router internals in one place.

Each view has the shape of the per-peer table it summarises: a dict with
one entry per peer that holds the state, and no entry for a peer that
does not.
"""

from __future__ import annotations

from typing import Any


def polled(router: Any) -> dict[str, Any]:
    """Control location -> poll timer, for every live poll loop."""
    return {
        location: record.poll_timer
        for location, record in router._publishers.items()
        if record.poll_timer is not None
    }


def channels(router: Any) -> dict[str, Any]:
    """Control location -> open push channel."""
    return {
        location: record.channel
        for location, record in router._publishers.items()
        if record.channel is not None
    }


def remote_islands(router: Any) -> dict[str, str]:
    """Control location -> island, for every publisher whose island is known."""
    return {
        location: record.island
        for location, record in router._publishers.items()
        if record.island is not None
    }


def poll_failures(router: Any) -> dict[str, int]:
    """Control location -> consecutive poll failures (nonzero counts only)."""
    return {
        location: record.poll_failures
        for location, record in router._publishers.items()
        if record.poll_failures
    }


def remote_topics(router: Any, island: str) -> set[str]:
    """Topic patterns the subscriber ``island`` has announced here."""
    return router._subscribers[island].topics


def peers(router: Any) -> tuple[dict[str, Any], dict[str, Any]]:
    """Both per-peer maps: (subscriber records, publisher records)."""
    return router._subscribers, router._publishers


def live_timers(router: Any) -> list[Any]:
    """Simulator events still due to call one of the router's methods:
    heap events, and deadline-lane entries (a lane has only its head on
    the heap)."""
    sim = router.vsg.sim
    queued = [event for _, _, event in sim._heap if event.lane is None]
    queued += [event for lane in sim._lanes.values() for event in lane]
    return [
        event
        for event in queued
        if not event.cancelled and getattr(event.callback, "__self__", None) is router
    ]


def delivery(router: Any, island: str) -> Any:
    """The subscriber ``island``'s delivery record (queue, batch, unacked)."""
    return router._subscribers[island].delivery
