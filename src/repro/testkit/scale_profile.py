"""Stub-island catalogue for the ``scale`` seed band.

Seeds in [600, 700) (see :mod:`repro.testkit.bands`) run against a
sharded, replicated directory plane (:mod:`repro.core.shard`) — and the
whole point of that plane is behaviour under a registry holding
*thousands* of islands.  Building a full gateway stack per island would
make the band intractable, so the catalogue is seeded as **pure
directory data**: one WSDL document plus one gateway registration per
stub, written straight into the shard primaries through the federation
view (in-process, no wire traffic, no change notifications fan-out —
``FederationView`` routes each key to its ring owner exactly like a
wire client would).

The stubs then matter three ways:

- **lookup traffic** — half the band's lookups target stub names
  (see :mod:`repro.testkit.workload`), so every shard serves
  cache-cold reads;
- **anti-entropy payload** — the catalogue is thousands of ops the
  replica sync agents must converge, which is what the
  replica-convergence oracle measures;
- **ring placement** — each stub's document and registration must land
  on its ring owner, which is what the ring-placement oracle checks.

Stub locations point at a fake ``stubnet`` segment that exists on no
network: anything that accidentally dereferences one fails fast instead
of silently talking to a real node.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.soap.wsdl import WsdlDocument
from repro.testkit.topology import TopologySpec, World


def stub_island_name(index: int) -> str:
    return f"stub{index}"


def stub_service_name(index: int) -> str:
    return f"Svc_stub{index}"


def stub_location(index: int) -> str:
    """A syntactically valid address on a segment that does not exist —
    dereferencing a stub is a bug, and this makes it a loud one."""
    return f"soap://stubnet/{index}:8080/{stub_service_name(index)}"


def shape(spec: TopologySpec, rng: random.Random) -> TopologySpec:
    """Draw the sharded plane and the stub catalogue's size."""
    return replace(
        spec,
        federation_shards=rng.choice((4, 8, 16)),
        federation_replicas=rng.choice((2, 3)),
        stub_islands=rng.choices((1000, 2000, 4000), weights=(50, 35, 15))[0],
        # Thousands of stub registrations sit in the gateway registry:
        # heartbeating them all would drown the band in ping traffic.
        heartbeat_interval=0.0,
    )


def install_scale(world: World) -> None:
    """Seed ``spec.stub_islands`` stub islands into the shard primaries.

    Call **after** ``mm.connect()`` (the real islands' registrations are
    part of the pinned connect traffic) and **before** the workload
    clock starts, so t=0 lookups already face the full catalogue.  The
    stub island names go on ``world.scale_stubs`` for the vsr-islands
    oracle.
    """
    view = world.federation.view
    names = []
    for index in range(world.spec.stub_islands):
        island = stub_island_name(index)
        service = stub_service_name(index)
        location = stub_location(index)
        view.publish(
            WsdlDocument(
                service=service,
                location=location,
                context={"island": island, "middleware": "stub", "kind": "stub"},
            )
        )
        view.register_gateway(island, location)
        names.append(island)
    world.scale_stubs = tuple(names)
