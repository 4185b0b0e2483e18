"""The testkit's seed bands: one record per band, one registry.

A seed's band sets its legacy/modern island mix and workload weights,
adds topology and fault draws after the base ones (same RNG stream, so
the shared prefix is the default band's), installs subsystems around
``connect()`` and extends the run window.  The generators and the runner
read the record and never test a band's name.  Oracles need no entry:
each judges whatever the world carries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.faults.plan import FaultAction
from repro.net.simkernel import SimFuture
from repro.testkit import persistence_profile, rules_profile, scale_profile, telemetry_profile
from repro.testkit.topology import TopologySpec, World

Faults = list[tuple[float, FaultAction]]


@dataclass(frozen=True)
class Band:
    name: str
    #: Empty for ``default``, which owns every seed no other band claims.
    seeds: range
    #: Over ``workload._KINDS``: call, publish, subscribe, lookup, join, leave.
    workload_weights: tuple[int, ...]
    #: Percent of islands drawn on the legacy wire; the rest are modern.
    legacy_weight: int
    #: Extra virtual seconds the run window gets before shutdown.
    settle: float = 0.0
    shape: Callable[[TopologySpec, random.Random], TopologySpec] | None = None
    #: Called as ``extra_faults(spec, rng, horizon)``.
    extra_faults: Callable[[TopologySpec, random.Random, float], Faults] | None = None
    before_connect: Callable[[World], None] | None = None
    #: A returned future runs to completion before the workload starts.
    after_connect: Callable[[World], SimFuture | None] | None = None


BANDS: dict[str, Band] = {
    band.name: band
    for band in (
        # The historical draw: seeds below 100, and 700 up (nightly's too).
        Band(
            name="default",
            seeds=range(0),
            workload_weights=(50, 15, 10, 10, 8, 7),
            legacy_weight=40,
        ),
        # Publish-heavy, so push channels carry traffic (early subscribes
        # open them) and their polling fallback runs under faults.
        Band(
            name="push",
            seeds=range(100, 200),
            workload_weights=(20, 45, 20, 5, 5, 5),
            legacy_weight=25,
        ),
        # Rule engines on two islands.  Publishes trigger rules; calls stay
        # frequent so rule actions contend with ordinary traffic.
        Band(
            name="rules",
            seeds=range(200, 300),
            workload_weights=(25, 45, 10, 5, 8, 7),
            legacy_weight=20,
            after_connect=rules_profile.install_rule_engines,
        ),
        # Call-heavy with a strong publish side: deep RPC pipelines and
        # coalesced event-frame bursts against legacy peers.
        Band(
            name="reactor",
            seeds=range(300, 400),
            workload_weights=(45, 30, 10, 5, 5, 5),
            legacy_weight=15,
        ),
        # Agents streaming to one collector.  Call-heavy so success-rate
        # windows always have samples; reports share the event plane.
        Band(
            name="telemetry",
            seeds=range(400, 500),
            workload_weights=(45, 25, 12, 6, 6, 6),
            legacy_weight=15,
            shape=telemetry_profile.shape,
            after_connect=telemetry_profile.install_telemetry,
        ),
        # Restart torture: publish-heavy, so cold crashes land amid queued
        # and retained events.  The settle lets a late restart (≤ 8 s), a
        # channel watchdog round (~35 s) and a poll (≤ 5 s) land every
        # redelivery the durability oracle will demand.
        Band(
            name="persistence",
            seeds=range(500, 600),
            workload_weights=(20, 45, 20, 5, 5, 5),
            legacy_weight=20,
            settle=90.0,
            extra_faults=persistence_profile.crash_cycles,
            before_connect=persistence_profile.install_persistence,
        ),
        # A sharded plane under thousands of stubs.  Lookup-heavy with no
        # subscribes: poll loops against that registry would be an announce
        # storm.  The settle gives a replica faulted late a few anti-entropy
        # rounds (~2 s each) to converge.
        Band(
            name="scale",
            seeds=range(600, 700),
            workload_weights=(35, 15, 0, 35, 7, 8),
            legacy_weight=25,
            settle=30.0,
            shape=scale_profile.shape,
            after_connect=scale_profile.install_scale,
        ),
    )
}


def band_for(seed: int) -> Band:
    """The band that owns ``seed``."""
    for band in BANDS.values():
        if seed in band.seeds:
            return band
    return BANDS["default"]
