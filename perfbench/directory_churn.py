"""directory_churn: eight VSR clients against one UDDI directory.

The directory is the default single one (no ``FederationConfig``), seeded
in set-up with 10k stub WSDL documents.  Each client issues a Poisson mix:

- 60% ``find_by_name`` on Zipf-skewed names, so the 30 s positive cache
  has something to hit;
- 10% names that were never registered, which the negative cache answers
  after the first miss; "not found" is the right answer here;
- 10% ``find`` on an indexed context attribute that about ten documents
  share;
- 20% writes to the client's own share of the names: a new version
  (``publish``) or a ``withdraw``.  Writes evict the writer's cache
  entries, and each write is announced on the writer's change topic,
  which one peer mirrors by evicting that name from its own cache.

A write never follows the writer's own read of that name by less than
``WRITE_GUARD``.  ``VsrClient`` evicts its cache when a write is issued,
but a lookup already in flight then fills the cache with the old
document when its answer lands, and the writer would read its pre-write
state for the 30 s cache lifetime.  The workload measures cost, so it
keeps clear of that race instead of failing on it.

Why: the only workload where ``core.vsr`` and ``soap.wsdl`` dominate host
time, with writes beside the reads so that a caching gain that costs
writes shows up.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.framework import MetaMiddleware
from repro.errors import ServiceNotFoundError, SoapFault
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import SimFuture, Simulator
from repro.soap.http import REACTOR_INTERCHANGE
from repro.soap.wsdl import WsdlDocument, WsdlOperation, WsdlPart

from common import Tally, poisson_times, segment_bytes

NAME = "directory_churn"
WHY = "one UDDI directory with 10k stubs: Zipf reads, ghost names, context finds and writes from 8 clients"

CLIENTS = tuple(f"c{index}" for index in range(8))
DOCUMENTS = 10_000
#: Documents per ``zone`` attribute value (what ``find`` filters on).
ZONE_SIZE = 10
GHOSTS = 64
ZIPF_S = 1.0
#: Ops per virtual second per client, and the mix.  Ops come in
#: sessions of 1..2*SESSION_MEAN-1 spread over SESSION_SPREAD virtual
#: seconds, so exchanges contend on the wire by seeded offsets.
OP_RATE = 40.0
SESSION_MEAN = 4
SESSION_SPREAD = 0.002
MIX = (("read", 0.6), ("ghost", 0.1), ("find", 0.1), ("write", 0.2))
#: Share of writes that withdraw a present document.
WITHDRAW_SHARE = 0.3
#: Least virtual seconds from a client's read of a name to its write of
#: it; the slowest op answers within about 12 ms.
WRITE_GUARD = 0.1
WINDOW = 8.0
DRAIN = 1.0
#: Distinct scripts per run.  The event tail comes from rare contention
#: bursts; 16 scripts (about 8k deliveries) keep event_p99_ms within a few
#: percent from seed to seed.
SCRIPTS = 16

OPERATIONS = (WsdlOperation("get", (WsdlPart("key", "string"),), "string"),)


def name_of(index: int) -> str:
    return f"svc{index:05d}"


def owner_of(index: int) -> int:
    return index % len(CLIENTS)


def document(index: int, version: int) -> WsdlDocument:
    name = name_of(index)
    return WsdlDocument(
        service=name,
        location=f"soap://stub{index % 97}:8080/soap/{name}",
        operations=OPERATIONS,
        context={"zone": f"z{index // ZONE_SIZE:04d}", "version": str(version)},
    )


def script(seed: int) -> dict[str, Any]:
    """Ops are ``[due, client, kind, target, version]``; ``version`` is the
    one a publish writes, ``None`` for every other kind."""
    rng = random.Random(seed)
    # Hot names are spread over every owner by a seeded permutation.
    by_rank = list(range(DOCUMENTS))
    rng.shuffle(by_rank)
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(DOCUMENTS)))
    zones = DOCUMENTS // ZONE_SIZE
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    version = [0] * DOCUMENTS
    present = [True] * DOCUMENTS
    #: (client, document) -> due time of that client's last read of it.
    last_read: dict[tuple[int, int], float] = {}
    ops = []
    for client in range(len(CLIENTS)):
        for start in poisson_times(rng, OP_RATE / SESSION_MEAN, 0.0, WINDOW):
            for _ in range(rng.randint(1, 2 * SESSION_MEAN - 1)):
                due = round(start + rng.uniform(0.0, SESSION_SPREAD), 6)
                ops.append([due, client, rng.choices(kinds, weights)[0]])
    ops.sort()
    for op in ops:
        due, client, kind = op
        if kind == "read":
            index = by_rank[rng.choices(range(DOCUMENTS), cum_weights=cum_weights)[0]]
            last_read[client, index] = due
            op += [index, None]
        elif kind == "ghost":
            op += [rng.randrange(GHOSTS), None]
        elif kind == "find":
            op += [rng.randrange(zones), None]
        else:
            # Own names only, so each name has one writer and its writes
            # reach the directory in issue order.
            while True:
                index = rng.randrange(DOCUMENTS // len(CLIENTS)) * len(CLIENTS) + client
                if due - last_read.get((client, index), -WRITE_GUARD) >= WRITE_GUARD:
                    break
            if present[index] and rng.random() < WITHDRAW_SHARE:
                present[index] = False
                op[2] = "withdraw"
                op += [index, None]
            else:
                present[index] = True
                version[index] += 1
                op[2] = "publish"
                op += [index, version[index]]
    return {"ops": ops}


@dataclass
class World:
    sim: Simulator
    network: Network
    mm: MetaMiddleware
    #: (subscriber client, (name, write op index), delivered at) per callback.
    deliveries: list[tuple[int, list, float]] = field(default_factory=list)


def _topic(client: int) -> str:
    return f"directory.changes.{CLIENTS[client]}"


def build(script: dict[str, Any]) -> World:
    sim = Simulator()
    network = Network(sim)
    backbone = network.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(network, backbone, interchange=REACTOR_INTERCHANGE)
    world = World(sim, network, mm)
    for client in CLIENTS:
        mm.add_island(client, None)
    sim.run_until_complete(mm.connect())
    # Seeded after connect: the integration sequence reads the whole
    # catalogue, which is not what this workload measures.
    directory = mm.uddi.directory
    for index in range(DOCUMENTS):
        directory.publish(document(index, 0))
    for client, name in enumerate(CLIENTS):
        gateway = mm.island(name).gateway

        def on_change(topic: str, payload: Any, source: str, client: int = client) -> None:
            mm.island(CLIENTS[client]).gateway.vsr.invalidate(payload[0])
            world.deliveries.append((client, payload, sim.now))

        watched = (client - 1) % len(CLIENTS)
        sim.run_until_complete(gateway.subscribe(_topic(watched), on_change))
    sim.run_for(1.0)  # push channels open and settle
    return world


def _version(answer: Any) -> int | None:
    """The document version an answer shows; None for "not found"."""
    if isinstance(answer, (ServiceNotFoundError, SoapFault)):
        if isinstance(answer, SoapFault) and answer.detail != "ServiceNotFoundError":
            raise TypeError(answer)
        return None
    if isinstance(answer, BaseException):
        raise TypeError(answer)
    return int(answer.context["version"])


def drive(world: World, script: dict[str, Any]) -> Tally:
    cpu0 = time.process_time()
    sim, mm = world.sim, world.mm
    ops = script["ops"]
    t0 = sim.now
    bytes0 = segment_bytes(world.network)
    answers: list[Any] = [None] * len(ops)
    published: dict[int, float] = {}
    inflight = [0]
    vsrs = [mm.island(name).gateway.vsr for name in CLIENTS]
    gateways = [mm.island(name).gateway for name in CLIENTS]

    def issue(index: int) -> None:
        _due, client, kind, target, version = ops[index]
        vsr = vsrs[client]
        if kind == "read":
            future = vsr.find_by_name(name_of(target))
        elif kind == "ghost":
            future = vsr.find_by_name(f"ghost{target:03d}")
        elif kind == "find":
            future = vsr.find({"zone": f"z{target:04d}"})
        elif kind == "publish":
            future = vsr.publish(document(target, version))
        else:
            future = vsr.withdraw(name_of(target))
        inflight[0] += 1

        def done(future: SimFuture) -> None:
            inflight[0] -= 1
            answers[index] = (sim.now, future.exception() or future.result())
            if kind in ("publish", "withdraw") and future.exception() is None:
                published[index] = sim.now
                gateways[client].publish_event(_topic(client), [name_of(target), index])

        future.add_done_callback(done)

    for index, op in enumerate(ops):
        sim.at(t0 + op[0], issue, index)
    sim.run(until=t0 + WINDOW)
    backlog = inflight[0]
    sim.run(until=t0 + WINDOW + DRAIN)

    cpu_s = time.process_time() - cpu0
    tally = Tally(backlog=backlog, cpu_s=cpu_s, wire_bytes=segment_bytes(world.network) - bytes0)
    _check_answers(tally, ops, answers, t0)
    _check_changes(tally, world, ops, published)
    return tally


def _check_answers(tally: Tally, ops: list, answers: list, t0: float) -> None:
    """Judge every answer against the writes the script issued.

    A name's history is its initial version 0 followed by its writes in
    issue order (one writer per name, so the directory applies them in
    that order).  A read may show any state the directory held while the
    read was outstanding, which is at least the one left by the last write
    acknowledged before the read was issued.  Reads served from another
    client's cache may be older (up to the 30 s cache lifetime); a
    client's own reads may not, because its writes evict its cache.
    """
    history: dict[int, list[tuple[float, float, int | None]]] = {}
    for index, (due, _client, kind, target, version) in enumerate(ops):
        if kind in ("publish", "withdraw") and answers[index] is not None:
            acked = answers[index][0]
            history.setdefault(target, []).append((t0 + due, acked, version))

    def allowed(target: int, issued: float, answered: float, fresh: bool) -> set:
        states: list[tuple[float, float, int | None]] = [(-1.0, -1.0, 0)]
        states += history.get(target, [])
        first = 0
        if fresh:
            for position, (_issued, acked, _state) in enumerate(states):
                if acked <= issued:
                    first = position
        return {state for w_issued, _acked, state in states[first:] if w_issued <= answered}

    for index, (due, client, kind, target, version) in enumerate(ops):
        tally.attempted += 1
        answer = answers[index]
        if answer is None:
            tally.note("failed", f"op {index} {kind} never answered")
            continue
        at, value = answer
        issued = t0 + due
        try:
            if kind == "ghost":
                ok = _version(value) is None
            elif kind == "read":
                own = owner_of(target) == client
                ok = _version(value) in allowed(target, issued, at, fresh=own)
            elif kind == "find":
                shown = {int(doc.service[3:]): int(doc.context["version"]) for doc in value}
                zone = range(target * ZONE_SIZE, (target + 1) * ZONE_SIZE)
                ok = set(shown) <= set(zone) and all(
                    shown.get(doc) in allowed(doc, issued, at, fresh=True) for doc in zone
                )
            else:
                ok = value is True
        except (TypeError, ValueError, AttributeError, KeyError):
            tally.note("failed", f"op {index} {kind} {target}: {value!r}")
            continue
        tally.completed += 1
        tally.op_latency.append(at - issued)
        if not ok:
            tally.note("wrong", f"op {index} {kind} {target} by c{client}: {value!r}")


def _check_changes(tally: Tally, world: World, ops: list, published: dict) -> None:
    """Every acknowledged write reaches the writer's watcher exactly once."""
    seen: dict[int, int] = {}
    for client, (_name, index), at in world.deliveries:
        writer = ops[index][1]
        if client != (writer + 1) % len(CLIENTS):
            tally.note("wrong", f"c{client} got a change of c{writer}")
            continue
        seen[index] = seen.get(index, 0) + 1
        tally.completed += 1
        tally.event_latency.append(at - published[index])
    for index in published:
        tally.attempted += 1
        if seen.get(index, 0) != 1:
            tally.note("failed" if index not in seen else "wrong",
                       f"change {index} delivered {seen.get(index, 0)} times")
