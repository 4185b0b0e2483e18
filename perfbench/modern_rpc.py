"""modern_rpc: four SOAP-native islands on the reactor wire.

Each island exports two device services.  A handler answers after a
seeded 1-10 ms of virtual device work, with a payload of 32 B, 256 B or
4 KB, so replies land on both sides of the 200 B gzip floor.  Every
island calls every peer (Poisson), and every island publishes a stream of
same-instant bursts that the three other islands receive over push
channels.

Why: this is the modern wire at load.  Host time goes to ``soap.http``,
the envelope codec, ``net.reactor`` and ``core.vsg``; after the first call
every VSR lookup is a cache hit, and no PCM runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import SimFuture, Simulator
from repro.soap.http import REACTOR_INTERCHANGE

from common import Tally, poisson_times, segment_bytes

NAME = "modern_rpc"
WHY = "reactor wire at load: pipelined SOAP calls and push event bursts, VSR all cache hits"

ISLANDS = ("north", "south", "east", "west")
SERVICES = ("Meter", "Camera")
PAYLOAD_SIZES = (32, 256, 4096)
#: Distinct payloads per size class (drawn once per script).
PAYLOAD_POOL = 8
#: Calls per virtual second from one island to one peer.
CALL_RATE = 16.0
#: Publish bursts per virtual second per island, each 1..BURST_MAX events.
BURST_RATE = 6.0
BURST_MAX = 4
#: Virtual seconds over which ops fall due, then the drain after them.
WINDOW = 8.0
DRAIN = 1.0
#: Distinct scripts per run; the virtual metrics pool all of them.  8
#: rather than 4 halves the seed-to-seed spread of op_p99_ms and
#: event_p50_ms.
SCRIPTS = 8


def script(seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    payloads = {
        str(size): [format(rng.getrandbits(4 * size), f"0{size}x") for _ in range(PAYLOAD_POOL)]
        for size in PAYLOAD_SIZES
    }
    calls = []
    for src in ISLANDS:
        for dst in ISLANDS:
            if dst == src:
                continue
            for due in poisson_times(rng, CALL_RATE, 0.0, WINDOW):
                service = f"{dst}_{rng.choice(SERVICES)}"
                delay = round(rng.uniform(0.001, 0.010), 6)
                size = rng.choice(PAYLOAD_SIZES)
                calls.append([due, src, service, delay, size, rng.randrange(PAYLOAD_POOL)])
    calls.sort()
    events = []
    for publisher in ISLANDS:
        for due in poisson_times(rng, BURST_RATE, 0.0, WINDOW):
            for _ in range(rng.randint(1, BURST_MAX)):
                events.append([due, publisher])
    events.sort()
    return {"payloads": payloads, "calls": calls, "events": events}


@dataclass
class World:
    sim: Simulator
    network: Network
    mm: MetaMiddleware
    #: (subscriber island, event id, delivered at) per callback.
    deliveries: list[tuple[str, int, float]] = field(default_factory=list)


def _topic(island: str) -> str:
    return f"feed.{island}"


def build(script: dict[str, Any]) -> World:
    sim = Simulator()
    network = Network(sim)
    backbone = network.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(network, backbone, interchange=REACTOR_INTERCHANGE)
    world = World(sim, network, mm)
    calls = script["calls"]
    payloads = script["payloads"]

    def handler(operation: str, args: list[Any]) -> SimFuture:
        _due, _src, _service, delay, size, index = calls[int(args[0])]
        future: SimFuture = SimFuture()
        sim.schedule(delay, future.set_result, payloads[str(size)][index])
        return future

    exports = []
    for island in ISLANDS:
        gateway = mm.add_island(island, None).gateway
        for kind in SERVICES:
            name = f"{island}_{kind}"
            interface = simple_interface(name, {"read": ("string", "->string")})
            exports.append(gateway.export_service(name, interface, handler))
    for future in exports:
        sim.run_until_complete(future)
    sim.run_until_complete(mm.connect())
    for island in ISLANDS:

        def on_event(topic: str, payload: Any, source: str, island: str = island) -> None:
            world.deliveries.append((island, payload, sim.now))

        topics = [_topic(peer) for peer in ISLANDS if peer != island]
        sim.run_until_complete(mm.island(island).gateway.subscribe_many(topics, on_event))
    sim.run_for(1.0)  # push channels open and settle
    return world


def drive(world: World, script: dict[str, Any]) -> Tally:
    cpu0 = time.process_time()
    sim, mm = world.sim, world.mm
    calls, events = script["calls"], script["events"]
    t0 = sim.now
    bytes0 = segment_bytes(world.network)
    answers: list[Any] = [None] * len(calls)
    inflight = [0]

    def issue(index: int) -> None:
        _due, src, service, *_ = calls[index]
        inflight[0] += 1

        def done(future: SimFuture) -> None:
            inflight[0] -= 1
            answers[index] = (sim.now, future.exception() or future.result())

        mm.island(src).gateway.invoke(service, "read", [str(index)]).add_done_callback(done)

    for index, call in enumerate(calls):
        sim.at(t0 + call[0], issue, index)
    gateways = {island: mm.island(island).gateway for island in ISLANDS}
    for event_id, (due, publisher) in enumerate(events):
        sim.at(t0 + due, gateways[publisher].publish_event, _topic(publisher), event_id)
    sim.run(until=t0 + WINDOW)
    backlog = inflight[0]
    sim.run(until=t0 + WINDOW + DRAIN)

    cpu_s = time.process_time() - cpu0
    tally = Tally(backlog=backlog, cpu_s=cpu_s, wire_bytes=segment_bytes(world.network) - bytes0)
    payloads = script["payloads"]
    for index, (due, src, service, _delay, size, pool) in enumerate(calls):
        tally.attempted += 1
        answer = answers[index]
        if answer is None or isinstance(answer[1], BaseException):
            tally.note("failed", f"call {index} {src}->{service}: {answer and answer[1]!r}")
            continue
        tally.completed += 1
        tally.op_latency.append(answer[0] - (t0 + due))
        if answer[1] != payloads[str(size)][pool]:
            tally.note("wrong", f"call {index} {src}->{service} returned another payload")
    seen: dict[tuple[str, int], int] = {}
    for island, event_id, at in world.deliveries:
        seen[(island, event_id)] = seen.get((island, event_id), 0) + 1
        tally.completed += 1
        tally.event_latency.append(at - (t0 + events[event_id][0]))
    for event_id, (_due, publisher) in enumerate(events):
        for island in ISLANDS:
            if island == publisher:
                continue
            tally.attempted += 1
            count = seen.get((island, event_id), 0)
            if count == 0:
                tally.note("failed", f"event {event_id} never reached {island}")
            elif count > 1:
                tally.note("wrong", f"event {event_id} reached {island} {count} times")
    return tally
