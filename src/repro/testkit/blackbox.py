"""Flight-recorder installation for testkit runs.

Every replay (all seed bands) gets one :class:`~repro.obs.flight.
FlightRecorder` per gateway node, fed from the passive observability
seams — span finishes, monitored frames, breaker transitions, heartbeat
flips, watchdog reaps, rule firings.  Recording never touches the wire
or the clock, so the determinism pins (workload/metrics byte-identity)
hold with recorders installed.

Dumps are triggered by the runner on three signals (the ISSUE-8
contract): a crash injection landing on a gateway node, an HTTP watchdog
reaping a wedged exchange (wired here via ``HttpClient.flight``), and an
oracle failure at the end of the run — so every minimized repro ships
its black box.
"""

from __future__ import annotations

from repro.obs.flight import FlightRecorder
from repro.testkit.topology import World


def install_flight_recorders(world: World) -> dict[str, FlightRecorder]:
    """One recorder per gateway node, wired to every passive seam."""
    recorders: dict[str, FlightRecorder] = {}
    for ispec in world.spec.islands:
        island = ispec.name
        gateway = world.mm.islands[island].gateway
        recorder = FlightRecorder(world.sim, node=f"gw-{island}")
        if world.obs.enabled:
            recorder.watch_tracer(world.obs.tracer, island=island)
        recorder.watch_breakers(gateway.resilience, home=island)
        recorder.watch_heartbeat(gateway.heartbeat, home=island)
        gateway.protocol.client.http.flight = recorder
        gateway.vsr.soap.http.flight = recorder
        recorders[island] = recorder
    for host, engine in sorted(world.rule_engines.items()):
        recorders[host].watch_engine(engine)

    # Frame feed: each island's own segment goes to its recorder; a
    # *dropped* backbone frame is everyone's problem (the shared wire is
    # dying), so it lands in every black box.
    segment_island = {
        ispec.segment_name: ispec.name
        for ispec in world.spec.islands
        if ispec.segment_name
    }

    def on_frame(segment: str, protocol: str, size: int, dropped: bool) -> None:
        island = segment_island.get(segment)
        if island is not None:
            recorders[island].record(
                "frame", segment=segment, protocol=protocol, size=size,
                dropped=dropped,
            )
        elif dropped:
            for recorder in recorders.values():
                recorder.record(
                    "frame", segment=segment, protocol=protocol, size=size,
                    dropped=dropped,
                )

    world.monitor.frame_listeners.append(on_frame)
    world.flight.update(recorders)
    return recorders
