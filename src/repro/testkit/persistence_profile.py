"""Durable-state installation for the ``persistence`` seed band.

Seeds in [500, 600) (see :mod:`repro.testkit.bands`) run with a WAL
journal attached to every gateway and to the VSR directory, and with
guaranteed crash→restart faults mixed into a publish-heavy workload —
the restart-torture band.  The fault injector turns ``NodeCrash`` into a
*cold* crash for journaled components: in-memory state is wiped, the
store closes where the WAL tail stands, and recovery must rebuild
everything from replay (see :meth:`VirtualServiceGateway.recover`).

Two oracles judge the band (see :mod:`repro.testkit.oracles`):

- **no-lost-acked-event** — every event a journaled publisher queued for
  a live subscriber is eventually delivered there (or handed over in a
  fetch reply, the one declared at-most-once window), across any number
  of restarts on either side;
- **replay-idempotence** — replaying any WAL twice yields byte-identical
  canonical state snapshots.

The journals ride :class:`~repro.store.wal.MemWalStore`: the byte buffer
is owned by the ``World`` (outside every node), so it survives simulated
crashes exactly like a disk — and stays fully deterministic.
"""

from __future__ import annotations

import random

from repro.faults.plan import FaultAction, NodeCrash
from repro.store import DirectoryJournal, GatewayJournal, MemWalStore
from repro.testkit.topology import TopologySpec, World

#: Low enough that band runs actually exercise checkpoint compaction
#: (a 40-step publish-heavy workload journals a few hundred records),
#: high enough that replay still folds multi-record tails.
CHECKPOINT_EVERY = 64


def crash_cycles(
    spec: TopologySpec, rng: random.Random, horizon: float
) -> list[tuple[float, FaultAction]]:
    """1-3 crash→restart cycles on gateway nodes.  Every one restarts:
    permanent deaths come from the base draws, and the band exists to
    exercise recovery."""
    gateways = [name for name in spec.node_names if name.startswith("gw-")]
    return [
        (
            rng.uniform(0.0, horizon),
            NodeCrash(node=rng.choice(gateways), restart_after=rng.uniform(2.0, 8.0)),
        )
        for _ in range(rng.randint(1, 3))
    ]


def install_persistence(world: World) -> dict[str, GatewayJournal]:
    """Attach a WAL journal to every gateway and to the directory.

    Call **before** ``mm.connect()`` so directory registrations and
    service exports land in the journals — they are exactly what a
    recovering gateway must be able to re-announce.
    """
    for name, island in sorted(world.mm.islands.items()):
        journal = GatewayJournal(
            MemWalStore(),
            name,
            obs=island.gateway.obs,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        island.gateway.attach_journal(journal)
        world.journals[name] = journal
    directory = world.mm.uddi.directory
    world.directory_journal = DirectoryJournal(
        MemWalStore(),
        "uddi-directory",
        obs=world.obs,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    directory.attach_journal(world.directory_journal)
    return world.journals
