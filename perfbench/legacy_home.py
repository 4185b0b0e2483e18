"""legacy_home: the paper's own home on the 2002 wire.

``build_smart_home()`` plus ``add_upnp_island()`` on ``LEGACY_INTERCHANGE``
(connection per exchange, verbose XML, 2 s event polling).  Three kinds of
traffic run at once:

- a plain ``JiniClient`` calls bridged HAVi, UPnP and X10 services through
  their lookup-service proxies (Figure 4's path);
- the X10 handset presses buttons bound by ``UniversalRemote`` to the Jini
  Laserdisc and the HAVi camera and display (Figure 5);
- the X10 motion sensor fires, and the other islands poll for its events
  and for the light's UPnP state events that the Jini calls cause.

Everything that uses the powerline (X10 calls, presses, motion) runs in
fixed slots, one per ``SLOT`` virtual seconds.  A command holds the
powerline for about 0.8 s, and X10 resolves a function frame against the
last address frame heard, so two commands that overlap would act on the
wrong unit.  ``SLOT`` is chosen so that the sensor's own OFF frame, sent
30 s after its last trigger, falls between slots.

Why: host time goes to the PCMs, the Jini/HAVi/X10/UPnP codecs,
connection-per-exchange transport, the segments and kernel timers.  The
reactor, pipelining and gzip do not run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.apps.home import SmartHome, add_upnp_island, build_smart_home
from repro.apps.universal_remote import UniversalRemote
from repro.core.vsg import FullEventCallback
from repro.jini.service import JiniClient, JiniHost
from repro.net.simkernel import SimFuture
from repro.soap.http import LEGACY_INTERCHANGE
from repro.x10.codes import X10Address, X10Function

from common import Tally, poisson_times, segment_bytes

NAME = "legacy_home"
WHY = "the paper's home on the 2002 wire: Jini client calls, X10 remote presses, polled sensor events"

#: Bridged services the Jini client calls off the powerline:
#: lookup interface -> (operation, argument range).
OFF_POWERLINE = {
    "vsg.Digital_TV_tuner": ("set_channel", (1, 999)),
    "vsg.Renderer_AVTransport": ("SetVolume", (0, 100)),
    "vsg.Porchlight_SwitchPower": ("SetTarget", (0, 1)),
}
LAMPS = ("vsg.X10_A1_hall_lamp", "vsg.X10_A2_porch_lamp")
#: Remote buttons bound by UniversalRemote.DEFAULT_LAYOUT.
BUTTONS = ("A4", "A5", "A6")
#: Islands that poll for the powerline ON events and the light's UPnP
#: state events (neither publisher subscribes to its own events).
SUBSCRIBERS = ("jini", "havi", "mail")
TOPICS = ["x10.ON", "upnp.Status"]
#: Scenes per virtual second.  A scene calls all three off-powerline
#: services within SCENE_SPREAD virtual seconds, so their exchanges
#: contend on the wire by seeded, continuous offsets.
SCENE_RATE = 2.0
SCENE_SPREAD = 0.003
#: One powerline op per slot: (kind, weight).
SLOT = 2.4
SLOT_KINDS = (("lamp", 0.3), ("press", 0.3), ("motion", 0.4))
#: Each slot's op falls due up to this far either side of the slot start.
SLOT_JITTER = 0.2
WINDOW = 120.0
#: Long enough for the last slot's command and every subscriber's next
#: poll to finish.
DRAIN = 6.0
#: Distinct scripts per run; the virtual metrics pool all of them.
SCRIPTS = 4


def script(seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    calls = []
    targets = sorted(OFF_POWERLINE)

    def scene(start: float) -> None:
        for target in rng.sample(targets, len(targets)):
            operation, (low, high) = OFF_POWERLINE[target]
            value = rng.randint(low, high)
            due = round(start + rng.uniform(0.0, SCENE_SPREAD), 6)
            calls.append([due, target, operation, bool(value) if high == 1 else value])

    for start in poisson_times(rng, SCENE_RATE, 0.0, WINDOW):
        scene(start)
    slots = []
    kinds = [kind for kind, _ in SLOT_KINDS]
    weights = [weight for _, weight in SLOT_KINDS]
    slot = SLOT / 2
    while slot < WINDOW:
        due = slot + rng.uniform(-SLOT_JITTER, SLOT_JITTER)
        kind = rng.choices(kinds, weights)[0]
        on = rng.random() < 0.5
        if kind == "lamp":
            # A lamp call is part of a scene, so it contends on the wire too.
            scene(due)
            target = rng.choice(LAMPS)
            lamp_due = round(due + rng.uniform(0.0, SCENE_SPREAD), 6)
            calls.append([lamp_due, target, "turn_on" if on else "turn_off", None])
        elif kind == "press":
            slots.append([round(due, 6), rng.choice(BUTTONS), "ON" if on else "OFF"])
        else:
            slots.append([round(due, 6), "A9", "ON"])
        slot += SLOT
    calls.sort(key=lambda call: call[0])
    return {"calls": calls, "powerline": slots}


@dataclass
class World:
    home: SmartHome
    remote: UniversalRemote
    proxies: dict[str, Any]
    #: (subscriber island, event record, delivered at) per callback.
    deliveries: list[tuple[str, dict, float]] = field(default_factory=list)


def build(script: dict[str, Any]) -> World:
    home = build_smart_home(interchange=LEGACY_INTERCHANGE)
    add_upnp_island(home)
    home.connect()
    sim = home.sim
    remote = UniversalRemote(home)
    remote.bind_default_layout()
    client = JiniClient(JiniHost(home.network, "bench-jini-client", home.network.segment("jini-eth")))
    lookup = sim.run_until_complete(client.discover_lookup())
    proxies = {
        interface: sim.run_until_complete(client.lookup_one(lookup, interface))
        for interface in sorted(OFF_POWERLINE) + list(LAMPS)
    }
    world = World(home, remote, proxies)
    for island in SUBSCRIBERS:

        def on_event(event: dict, island: str = island) -> None:
            world.deliveries.append((island, event, sim.now))

        gateway = home.island(island).gateway
        sim.run_until_complete(gateway.subscribe_many(TOPICS, FullEventCallback(on_event)))
    return world


def _device_state(home: SmartHome) -> dict[str, Any]:
    return {
        "vsg.Digital_TV_tuner": home.tv_tuner.channel,
        "vsg.Renderer_AVTransport": home.upnp_state["renderer"]["volume"],
        "vsg.Porchlight_SwitchPower": home.upnp_state["light"]["on"],
        "vsg.X10_A1_hall_lamp": home.lamps["hall"].on,
        "vsg.X10_A2_porch_lamp": home.lamps["porch"].on,
        "A4": home.laserdisc.playing,
        "A5": home.camera.capturing,
        "A6": home.tv_display.powered,
    }


def drive(world: World, script: dict[str, Any]) -> Tally:
    cpu0 = time.process_time()
    home = world.home
    sim = home.sim
    calls, slots = script["calls"], script["powerline"]
    t0 = sim.now
    bytes0 = segment_bytes(home.network)
    answers: list[Any] = [None] * len(calls)
    inflight = [0]
    before = _device_state(home)
    sensor, handset = home.motion_sensor, home.handset

    def issue(index: int) -> None:
        _due, target, operation, value = calls[index]
        args = [] if value is None else [value]
        inflight[0] += 1

        def done(future: SimFuture) -> None:
            inflight[0] -= 1
            answers[index] = (sim.now, future.exception() or future.result())

        getattr(world.proxies[target], operation)(*args).add_done_callback(done)

    for index, call in enumerate(calls):
        sim.at(t0 + call[0], issue, index)
    for due, address, function in slots:
        if address == "A9":
            sim.at(t0 + due, sensor.trigger)
        else:
            sim.at(t0 + due, handset.press, X10Address.parse(address), X10Function[function])
    sim.run(until=t0 + WINDOW)
    backlog = inflight[0]
    sim.run(until=t0 + WINDOW + DRAIN)

    cpu_s = time.process_time() - cpu0
    tally = Tally(backlog=backlog, cpu_s=cpu_s, wire_bytes=segment_bytes(home.network) - bytes0)
    expected = dict(before)
    for index, (due, target, operation, value) in enumerate(calls):
        tally.attempted += 1
        want = True if value is None else value
        expected[target] = operation == "turn_on" if value is None else value
        answer = answers[index]
        if answer is None or isinstance(answer[1], BaseException):
            tally.note("failed", f"{target}.{operation}({value}): {answer and answer[1]!r}")
            continue
        tally.completed += 1
        tally.op_latency.append(answer[0] - (t0 + due))
        if answer[1] != want:
            tally.note("wrong", f"{target}.{operation}({value}) returned {answer[1]!r}")
    presses = 0
    for _due, address, function in slots:
        if address != "A9":
            presses += 1
            expected[address] = function == "ON"
    tally.attempted += presses
    invoked = sum(world.remote.invocation_counts().values())
    tally.completed += invoked
    if invoked != presses:
        tally.note("failed", f"{presses} presses but {invoked} bridged invocations")
    for device, state in _device_state(home).items():
        if state != expected[device]:
            tally.note("wrong", f"{device} ends {state!r}, last command said {expected[device]!r}")
    _check_events(tally, world, calls, slots)
    return tally


def _check_events(tally: Tally, world: World, calls: list, slots: list) -> None:
    """Each subscriber gets every powerline ON frame (presses and sensor)
    and every light state change exactly once, in order."""
    expected = {
        "x10.ON": [address for _due, address, function in slots if function == "ON"],
        "upnp.Status": [value for _due, target, _op, value in calls if target == "vsg.Porchlight_SwitchPower"],
    }
    for island in SUBSCRIBERS:
        got: dict[str, list] = {topic: [] for topic in TOPICS}
        keys = set()
        for subscriber, event, at in world.deliveries:
            if subscriber != island:
                continue
            key = (event["island"], event["sequence"])
            if key in keys:
                tally.note("wrong", f"{island} got event {key} twice")
                continue
            keys.add(key)
            payload = event["payload"]
            got[event["topic"]].append(payload["address"] if "address" in payload else payload["value"])
            tally.completed += 1
            tally.event_latency.append(at - event["published_at"])
        for topic in TOPICS:
            tally.attempted += len(expected[topic])
            tally.failed += max(0, len(expected[topic]) - len(got[topic]))
            if got[topic] != expected[topic]:
                tally.note("wrong", f"{island} {topic} events differ from the script")
