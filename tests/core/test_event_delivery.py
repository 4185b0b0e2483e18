"""The publisher-side delivery record (:mod:`repro.core.events`), checked
exhaustively against the live :class:`~repro.core.vsg.EventRouter` and the
gateway journal's replay fold.

Every sequence of up to :data:`MAX_OPS` operations over at most
:data:`MAX_EVENTS` events and one subscriber runs on a fresh router whose
journal sits on a :class:`MemWalStore`.  The operations are a publish, a
flush (the simulator runs the due flush timer), a channel wait with ack
0, 1 or 2 and a poll fetch.  Waits hold for 0 s, so no hold timer
answers them: only a flush, a redelivery or the next wait does.  The
hand-over checks run after every operation and the state checks at the
end of each sequence, so every prefix state is checked too:

- at-least-once: each queued event is in the queue, in the retained
  batch, handed over by a fetch, or in a batch that an ack at or past
  its id released, and no batch is released before it was handed out;
- the fold matches the live record, replayed plain and through a
  checkpoint;
- nothing is redelivered: a released batch, or a fetched event, never
  comes back through a wait or a fetch, and each new batch gets an id
  above every earlier one.
"""

from __future__ import annotations

import ast
import inspect
from types import SimpleNamespace

from repro.core import events
from repro.core.events import Delivery
from repro.core.vsg import EventRouter
from repro.net.simkernel import Simulator
from repro.obs import NOOP_OBS
from repro.store.journal import GatewayJournal
from repro.store.wal import MemWalStore

from tests.router_views import delivery, peers

MAX_OPS = 6
MAX_EVENTS = 3
SUBSCRIBER = "sub"
OPS = ("publish", "flush", "wait0", "wait1", "wait2", "fetch")


def _router(supports_push: bool = False) -> tuple[EventRouter, Simulator, GatewayJournal]:
    """A real router on a gateway stub: a simulator, a journal and a pull
    protocol, which is all the publisher side reads."""
    sim = Simulator()
    journal = GatewayJournal(MemWalStore(), "pub")
    gateway = SimpleNamespace(
        island="pub",
        sim=sim,
        journal=journal,
        protocol=SimpleNamespace(supports_push=supports_push),
        obs=NOOP_OBS,
    )
    return EventRouter(gateway), sim, journal


def _slots(record: Delivery) -> tuple:
    return record.queue, record.batch, record.unacked


class _Run:
    """One operation sequence on a fresh router, with its oracle."""

    def __init__(self) -> None:
        self.router, self.sim, self.journal = _router()
        self.router.handle_subscribe(SUBSCRIBER, "t", "")
        self.publishes = 0
        self.handed: set[int] = set()
        #: Events handed over for good: fetched, or in an acked batch.
        self.discharged: set[int] = set()
        self.waits: list = []
        #: Batch id -> the events it carried, for every batch a wait got.
        self.batches: dict[int, set[int]] = {}

    def apply(self, op: str) -> None:
        router = self.router
        if op == "publish":
            router.publish("t", self.publishes)
            self.publishes += 1
        elif op == "flush":
            self.sim.run()
        elif op == "fetch":
            # The poll reply is the declared at-most-once handover.
            self.discharged |= self._hand_out(router.handle_fetch(SUBSCRIBER))
        else:
            ack = int(op[-1])
            retained = delivery(router, SUBSCRIBER).unacked
            self.waits.append(router.handle_wait(SUBSCRIBER, ack, 0.0))
            if retained is not None and delivery(router, SUBSCRIBER).unacked is None:
                assert ack >= retained[0], "released by an ack below the batch id"
                released = {event["sequence"] for event in retained[1]}
                assert released <= self.handed, "released before it was handed out"
                self.discharged |= released
            elif retained is not None:
                assert ack < retained[0], "an ack past the batch id kept it"
        for wait in [wait for wait in self.waits if wait.done()]:
            self.waits.remove(wait)
            batch, handed = wait.result()
            sequences = self._hand_out(handed)
            if not sequences:
                continue
            if batch in self.batches:
                assert self.batches[batch] == sequences, "a batch id reused"
            else:
                assert batch > max(self.batches, default=0), "a batch id not fresh"
                self.batches[batch] = sequences

    def _hand_out(self, handed: list[dict]) -> set[int]:
        sequences = {event["sequence"] for event in handed}
        assert not sequences & self.discharged, "redelivered after an ack or fetch"
        self.handed |= sequences
        return sequences

    def check(self, folds: dict[bytes, tuple]) -> None:
        """The three checks; ``folds`` memoises both replays by journal
        bytes (a fold is a pure function of the records)."""
        live = delivery(self.router, SUBSCRIBER)
        queue, batch, unacked = _slots(live)
        held = {event["sequence"] for event in queue}
        if unacked is not None:
            held |= {event["sequence"] for event in unacked[1]}
        # The router records each queued event as an obligation.
        obligations = self.router.retention_obligations
        assert len(obligations) == self.publishes
        for _, sequence in obligations:
            assert sequence in held or sequence in self.discharged, (
                f"event {sequence} lost"
            )
        records = bytes(self.journal.store.buffer)
        if records not in folds:
            plain = GatewayJournal(MemWalStore(records), "copy").replay()
            self.journal.checkpoint()  # serialises the running fold
            folds[records] = (plain, self.journal.replay())
        for state in folds[records]:
            assert _slots(Delivery.restored(state, SUBSCRIBER)) == _slots(live)


def _sequences(prefix: tuple[str, ...] = ()):
    yield prefix
    if len(prefix) == MAX_OPS:
        return
    for op in OPS:
        if op == "publish" and prefix.count("publish") == MAX_EVENTS:
            continue
        yield from _sequences(prefix + (op,))


def test_every_short_sequence_keeps_the_delivery_rule():
    checked = 0
    folds: dict[bytes, tuple] = {}
    for sequence in _sequences():
        run = _Run()
        for op in sequence:
            run.apply(op)
        run.check(folds)
        checked += 1
    # sum over n <= 6 of the length-n sequences with at most 3 publishes
    assert checked == 55_554


def test_the_record_imports_no_simulator_protocol_or_store():
    tree = ast.parse(inspect.getsource(events))
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [
        name for name in imported
        if name.startswith(("repro.net", "repro.soap", "repro.store"))
    ]


def test_restore_order_does_not_depend_on_a_checkpoint():
    """A checkpoint stores the fold with sorted keys; a plain replay keeps
    first-seen order.  Both must rebuild the records in one order."""
    _, _, journal = _router()
    for island in ("zeta", "alpha", "mu"):
        journal.log_remote_sub(island, "t", f"soap://{island}")
    for island in ("zeta", "alpha", "mu"):
        journal.log_remote_gateway(f"soap://{island}", island)
    journal.log_channel_ack("soap://zeta", 1)
    journal.log_channel_ack("soap://alpha", 1)
    orders = []
    for checkpoint in (False, True):
        if checkpoint:
            journal.checkpoint()
        state = journal.replay()
        router, _, _ = _router(supports_push=True)
        router.restore(state)
        router.resume_delivery(state)
        subscribers, publishers = peers(router)
        orders.append((list(subscribers), list(publishers)))
    assert orders[0] == orders[1]
