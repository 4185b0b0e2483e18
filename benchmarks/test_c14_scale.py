"""Experiment C14 — neighborhood-scale directory lookups and anti-entropy
convergence on the sharded VSR federation.

The federation (docs/FEDERATION.md) makes three performance promises:

- **sharding buys lookup headroom** — one directory replica is a single
  service queue (M/D/1-ish: each dispatched operation occupies it for a
  fixed service time).  At neighborhood scale (10k registered stub
  islands polling on the historical 2 s interval) a single shard runs
  saturated while 16 shards idle along at ~11 % utilization, so the
  16-shard p99 ``find_by_name`` must beat the 1-shard p99 by >= 4x.
- **convergence is bounded** — a replica that missed a burst of writes
  catches up in one anti-entropy round: a digest on the drift-free
  schedule plus however many delta pages the burst fills, never a
  function of how long the plane has been alive.
- **the trivial plane is free** — the default 1 shard x 1 replica plane
  produces the single-directory wire recorded before the single directory
  became that plane (``tests/golden``), byte for byte: same frames, same
  bytes, same order, so nobody pays for federation they didn't configure.

All latencies and convergence times are virtual (simulated) seconds —
deterministic across machines.  Numbers land in ``BENCH_scale.json``
(``$BENCH_OUTPUT_DIR``, default ``benchmarks/out/``); CI uploads the
artifact and gates it against the copy committed at the repo root with
``benchmarks/gate.py``.
"""

from __future__ import annotations

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.core.shard import FederationConfig, ShardLoadModel, VsrFederation
from repro.core.vsr import VsrClient
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.net.transport import TransportStack
from repro.soap.wsdl import WsdlDocument

from benchmarks.conftest import emit_json, report
from tests.golden import wire_trace

ISLANDS = (100, 1_000, 10_000)
SHARDS = (1, 4, 16)
#: Virtual seconds one directory replica spends answering one operation —
#: picked so 10k islands on the historical 2 s poll interval offer 1.8
#: erlangs to a single shard (saturated) and ~0.11 to each of 16.
SERVICE_TIME = 0.00036
#: The historical island poll interval (framework default).
POLL_INTERVAL = 2.0
#: Background poll load is folded into the shard queues in pulses: one
#: capacity grab per shard per pulse, not one event per stub island.
PULSE = 0.5
WARMUP = 10.0
#: Measured lookups per cell, spread evenly over the measurement window.
LOOKUPS = 100
MEASURE = 20.0
#: Burst size for the convergence grid is the island count: one
#: registration per stub island, landed on the primaries only.
SYNC_INTERVAL = 2.0
MIN_SPEEDUP_AT_10K = 4.0


def quantile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def stub_doc(index: int) -> WsdlDocument:
    name = f"Svc_stub{index}"
    return WsdlDocument(
        service=name,
        location=f"soap://stubnet/{index}:8080/{name}",
        context={"island": f"stub{index}", "middleware": "stub", "kind": "stub"},
    )


def build_plane(shards: int, replicas: int) -> tuple[Simulator, Network, VsrFederation]:
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    federation = VsrFederation(
        net,
        backbone,
        FederationConfig(
            shards=shards,
            replicas=replicas,
            ring_seed="bench-ring",
            sync_interval=SYNC_INTERVAL,
        ),
        load_model_factory=lambda s: ShardLoadModel(s, SERVICE_TIME),
    )
    return sim, net, federation


def run_lookup_cell(islands: int, shards: int) -> dict:
    """p50/p99 virtual-time ``find_by_name`` latency for one grid cell:
    ``islands`` stub registrations on ``shards`` shards, with the stubs'
    steady poll load folded into every shard's service queue."""
    sim, net, federation = build_plane(shards, replicas=1)
    for index in range(islands):
        federation.view.publish(stub_doc(index))

    # Background load: islands/POLL_INTERVAL directory ops per second,
    # spread over the shards, folded in as one capacity grab per pulse.
    pulse_cost = (islands / shards) * (PULSE / POLL_INTERVAL) * SERVICE_TIME

    def pulse() -> None:
        for group in federation.replicas:
            group[0].load.inject(pulse_cost)
        sim.schedule(PULSE, pulse)

    sim.schedule(PULSE, pulse)

    node = net.create_node("bench-client")
    net.attach(node, net.segment("backbone"))
    stack = TransportStack(node, net)
    client = VsrClient(stack, federation.routing())

    latencies: list[float] = []
    spacing = MEASURE / LOOKUPS

    def issue(sample: int) -> None:
        # Cache-busting: every sample resolves a distinct live name.
        issued_at = sim.now
        future = client.find_by_name(f"Svc_stub{sample % islands}")
        future.add_done_callback(
            lambda f: latencies.append(sim.now - issued_at)
            if f.exception() is None
            else latencies.append(float("inf"))
        )

    for sample in range(LOOKUPS):
        sim.at(WARMUP + sample * spacing, issue, sample)

    deadline = WARMUP + MEASURE + 600.0
    while len(latencies) < LOOKUPS and sim.now < deadline:
        sim.run(until=sim.now + 5.0)
    assert len(latencies) == LOOKUPS, (
        f"{islands} islands x {shards} shards: only {len(latencies)} of "
        f"{LOOKUPS} lookups completed by t={sim.now:g}"
    )
    assert all(value != float("inf") for value in latencies), "lookup failed"

    ordered = sorted(latencies)
    utilization = (islands / shards) * SERVICE_TIME / POLL_INTERVAL
    return {
        "islands": islands,
        "shards": shards,
        "offered_load": round(utilization, 4),
        "p50_s": quantile(ordered, 0.50),
        "p99_s": quantile(ordered, 0.99),
    }


def run_convergence_cell(islands: int, shards: int) -> dict:
    """Virtual time for a 2-replica plane to converge after ``islands``
    registrations land on the primaries only."""
    sim, _net, federation = build_plane(shards, replicas=2)
    for index in range(islands):
        federation.view.publish(stub_doc(index))
    federation.start_sync()
    horizon = 120.0
    while not federation.converged() and sim.now < horizon:
        sim.run(until=sim.now + 0.25)
    assert federation.converged(), (
        f"{islands} islands x {shards} shards never converged by t={sim.now:g}"
    )
    converged_at = sim.now
    stats = federation.stats()
    pulled = sum(
        replica.get("deltas_pulled", 0)
        for shard in stats["per_shard"]
        for replica in shard["replicas"]
    )
    federation.close()
    return {
        "islands": islands,
        "shards": shards,
        "converged_s": converged_at,
        "deltas_pulled": pulled,
    }


LAMP_IFACE = simple_interface("Lamp", {"set_level": ("int", "->int")})
THERMO_IFACE = simple_interface("Thermo", {"read": ("->double",)})


def run_wire_pin() -> dict:
    """The default 1x1 plane against the golden single-directory wire:
    a two-island scenario, frame-for-frame identical backbone traffic."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    monitor = TrafficMonitor(trace_enabled=True).watch(backbone)
    mm = MetaMiddleware(net, backbone)
    mm.add_island("a", None)
    mm.add_island("b", None)
    sim.run_until_complete(mm.connect())
    sim.run_until_complete(
        mm.islands["b"].gateway.vsr.publish(
            THERMO_IFACE.to_wsdl("soap://backbone/2:8080/soap/Thermo", {"island": "b"})
        )
    )
    sim.run_until_complete(mm.islands["a"].gateway.vsr.find({}))
    mm.shutdown()
    sim.run(until=sim.now + 60.0)
    golden = wire_trace("bare_islands_publish_and_find")
    return {
        "frames_legacy": len(golden),
        "frames_trivial": len(monitor.trace),
        "identical": monitor.trace_dropped == 0 and monitor.trace == golden,
    }


def run_experiment() -> dict:
    lookup_grid = [
        run_lookup_cell(islands, shards) for islands in ISLANDS for shards in SHARDS
    ]
    convergence_grid = [
        run_convergence_cell(islands, shards)
        for islands in ISLANDS
        for shards in SHARDS
    ]
    by_cell = {(cell["islands"], cell["shards"]): cell for cell in lookup_grid}
    speedup = by_cell[(10_000, 1)]["p99_s"] / by_cell[(10_000, 16)]["p99_s"]
    return {
        "service_time_s": SERVICE_TIME,
        "poll_interval_s": POLL_INTERVAL,
        "lookup": lookup_grid,
        "convergence": convergence_grid,
        "speedup_at_10k": speedup,
        "wire_pin": run_wire_pin(),
    }


def test_c14_scale(bench_once):
    results = bench_once(run_experiment)
    report(
        "C14: find_by_name latency vs islands x shards (virtual time)",
        [
            (
                f"{cell['islands']}",
                f"{cell['shards']}",
                f"{cell['offered_load']:.3f}",
                f"{cell['p50_s'] * 1000:.2f}ms",
                f"{cell['p99_s'] * 1000:.2f}ms",
            )
            for cell in results["lookup"]
        ],
        ("islands", "shards", "offered load", "p50", "p99"),
    )
    report(
        "C14: anti-entropy convergence after a primary-only burst",
        [
            (
                f"{cell['islands']}",
                f"{cell['shards']}",
                f"{cell['converged_s']:.2f}s",
                f"{cell['deltas_pulled']}",
            )
            for cell in results["convergence"]
        ],
        ("islands", "shards", "converged", "deltas pulled"),
    )
    pin = results["wire_pin"]
    report(
        "C14: trivial-plane wire pin",
        [("backbone frames", f"{pin['frames_legacy']}", f"{pin['frames_trivial']}",
          "identical" if pin["identical"] else "DIVERGED")],
        ("metric", "golden", "1x1 federation", "verdict"),
    )
    print(f"  -> speedup@10k islands (1 shard p99 / 16 shard p99): "
          f"{results['speedup_at_10k']:.1f}x")
    print(f"  -> {emit_json('scale', results)}")

    assert results["speedup_at_10k"] >= MIN_SPEEDUP_AT_10K
    assert pin["identical"], "1x1 federation diverged from the golden wire"
    # Convergence is one digest round plus the pulled pages — bounded by
    # burst size, not uptime; every cell must land well inside the sync
    # deadline even at 10k registrations on one shard.
    for cell in results["convergence"]:
        assert cell["converged_s"] < 30.0, cell
    # The saturated single shard must actually look saturated — otherwise
    # the speedup headline is measuring nothing.
    saturated = next(
        cell for cell in results["lookup"]
        if cell["islands"] == 10_000 and cell["shards"] == 1
    )
    assert saturated["offered_load"] > 1.0


def test_c14_lookup_grid_is_deterministic():
    """The measured latencies are virtual time over a deterministic
    simulation: the same cell reproduces to the last digit."""
    first = run_lookup_cell(1_000, 4)
    second = run_lookup_cell(1_000, 4)
    assert first == second
