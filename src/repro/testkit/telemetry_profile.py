"""Telemetry-plane installation for the ``telemetry`` seed band.

Seeds in [400, 500) (see :mod:`repro.testkit.bands`) run the
telemetry plane over the generated world: every island hosts a
:class:`~repro.obs.telemetry.TelemetryAgent` streaming delta reports on
a shared drift-free cadence, and one drawn island mounts the
:class:`~repro.obs.telemetry.TelemetryCollector` that merges them and
scores health against its own heartbeat/breaker view.

Like every testkit script the draw is **pure data from the seed**
(``generate_telemetry(spec)`` never looks at a live world), so a
replayed seed installs an identical plane and the metrics snapshot pins
byte-identical collector state.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.net.simkernel import SimFuture
from repro.obs.telemetry import TelemetryAgent, TelemetryCollector
from repro.testkit.topology import TopologySpec, World

#: Report cadences: short enough that a 40-op workload spans several
#: reports, long enough that staleness windows are meaningful.
_INTERVALS = (2.0, 3.0, 5.0)


def shape(spec: TopologySpec, rng: random.Random) -> TopologySpec:
    """Floors over the base draws: agents need a live registry to
    snapshot, and the collector's staleness scoring needs a heartbeat."""
    return replace(
        spec, obs_enabled=True, heartbeat_interval=spec.heartbeat_interval or 5.0
    )


def generate_telemetry(spec: TopologySpec) -> dict:
    """Draw the plane's shape for a spec (pure data)."""
    rng = random.Random(f"testkit:telemetry:{spec.seed}")
    return {
        "interval": rng.choice(_INTERVALS),
        "collector": rng.choice(sorted(spec.island_names)),
        # Window sized in report counts so health scoring always sees a
        # few reports regardless of the drawn cadence.
        "window_reports": rng.choice((4, 6)),
    }


def install_telemetry(world: World) -> SimFuture:
    """Build agents on every island + the collector, and mount the
    collector's cross-gateway subscription.

    The returned mount runs before the workload clock starts, so report
    channels are open from t=0 of the script (its announcement traffic is
    part of the band's pinned wire behaviour).  The agents start with the
    workload.
    """
    plan = generate_telemetry(world.spec)
    interval = plan["interval"]
    for ispec in world.spec.islands:
        gateway = world.mm.islands[ispec.name].gateway
        world.telemetry_agents[ispec.name] = TelemetryAgent(gateway, interval=interval)
    world.obs.metrics.track_each(
        "telemetry.agent", world.telemetry_agents, "counter", ("seq", "reports_emitted")
    )
    collector = TelemetryCollector(
        world.mm.islands[plan["collector"]].gateway,
        window=plan["window_reports"] * interval,
    )
    world.telemetry_collector = collector
    return collector.mount()
