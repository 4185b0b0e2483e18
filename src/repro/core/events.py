"""Publisher-side event delivery state, one record per subscriber island.

The poll and push-channel delivery modes (paper §4.2: SOAP/HTTP cannot
push, so a pull protocol's subscriber either polls or holds a streamed
channel open) share one piece of state per subscriber: the events queued
for it, the last batch id issued and the batch retained until the
subscriber acks it.  :class:`Delivery` owns that state and its four
transitions; the event router keeps the timers, parked waits, announces
and journal records around it and asks the record what to send.

The record is pure: no simulator, no futures, no protocol, so every
interleaving of its transitions can be enumerated directly.  Each
transition mirrors one gateway-journal record, and :meth:`Delivery.restored`
rebuilds the record from the journal's replayed fold.
"""

from __future__ import annotations

from typing import Any

#: One event record as the publisher stamped it.
Event = dict[str, Any]
#: ``(batch id, events)``: what a channel wait is answered with.
Frame = tuple[int, list[Event]]


class Delivery:
    """Queue, batch id and retained batch of one subscriber island.

    At-least-once: an event leaves the record only in a fetch (the poll
    reply, the one declared at-most-once handover) or in a retained batch
    the subscriber acked.
    """

    __slots__ = ("queue", "batch", "unacked")

    def __init__(
        self,
        queue: list[Event] | None = None,
        batch: int = 0,
        unacked: Frame | None = None,
    ) -> None:
        self.queue: list[Event] = [] if queue is None else queue
        #: The last batch id issued.
        self.batch = batch
        #: The batch flushed down a channel and not yet acked: redelivered
        #: to a wait with a stale ack, folded into the next fetch.
        self.unacked = unacked

    @classmethod
    def restored(cls, state: dict[str, Any], island: str) -> "Delivery":
        """The record of ``island`` in a replayed gateway-journal fold."""
        retained = state["unacked"].get(island)
        return cls(
            list(state["queues"].get(island, ())),
            int(state["batch_seq"].get(island, 0)),
            None if retained is None else (int(retained[0]), list(retained[1])),
        )

    def enqueue(self, event: Event) -> None:
        """Queue one event (journal: ``evq``)."""
        self.queue.append(event)

    def queued(self) -> int:
        """Events waiting for the next batch or fetch."""
        return len(self.queue)

    def take_batch(self) -> Frame | None:
        """Turn the queue into the next batch and retain it until acked
        (journal: ``flush``); ``None`` when nothing is queued."""
        events = self.queue
        if not events:
            return None
        self.queue = []
        self.batch += 1
        self.unacked = frame = (self.batch, events)
        return frame

    def ack(self, n: int) -> tuple[bool, Frame | None]:
        """Apply a wait's ack ``n``: ``(released, redeliver)``.

        An ack at or past the retained batch's id releases it (journal:
        ``ack``).  A lower ack means the frame was lost on the way, so the
        retained batch comes back to be sent again.
        """
        retained = self.unacked
        if retained is None:
            return False, None
        if n >= retained[0]:
            self.unacked = None
            return True, None
        return False, retained

    def fallback_to_poll(self) -> list[Event]:
        """Hand everything to a fetch: the retained batch, then the queue
        (journal: ``drain``).  A batch flushed down a channel that died
        before the ack belongs to the fallback poll."""
        queued, self.queue = self.queue, []
        retained, self.unacked = self.unacked, None
        if retained is not None:
            queued = retained[1] + queued
        return queued

    def keepalive(self) -> Frame:
        """The empty frame that answers a wait with nothing to send."""
        return self.batch, []
