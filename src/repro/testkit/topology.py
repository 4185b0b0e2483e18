"""Seeded random topologies: a whole simulated home from one integer.

``TopologyGen.generate(seed)`` draws a :class:`TopologySpec` — pure frozen
data — and ``build_world(spec)`` assembles the live world from it.  The
split matters: specs are comparable, printable and replayable, and the
shrinker can rebuild the identical world for every candidate subset.

RNG streams are namespaced (``testkit:topology:<seed>``) with string seeds
so results do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.framework import Island, MetaMiddleware
from repro.core.interface import ServiceInterface, simple_interface
from repro.core.pcm import ProtocolConversionManager
from repro.core.resilience import CallPolicy
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment, IEEE1394Segment, Segment
from repro.net.simkernel import SimFuture, Simulator
from repro.obs import Observability
from repro.soap.http import (
    FAST_INTERCHANGE,
    PUSH_INTERCHANGE,
    REACTOR_INTERCHANGE,
    InterchangeConfig,
)

#: Middleware kinds islands are drawn from; x10 and mail are bus-less
#: (their native medium carries no SOAP, so the gateway is backbone-only).
ISLAND_KINDS = ("jini", "havi", "upnp", "x10", "mail")

_SEGMENT_SUFFIX = {"jini": "-lan", "upnp": "-lan", "havi": "-bus"}

#: Every generated service speaks the same small interface; behavioural
#: variety comes from the workload, not from per-service schemas.
SERVICE_OPS = {
    "get": ("->int",),
    "add": ("int", "->int"),
    "echo": ("string", "->string"),
    "fail": (),
}


def service_interface(name: str) -> ServiceInterface:
    return simple_interface(name, dict(SERVICE_OPS))


# ---------------------------------------------------------------------------
# Specs (pure data)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSpec:
    name: str


@dataclass(frozen=True)
class IslandSpec:
    name: str
    kind: str
    services: tuple[str, ...]
    #: "legacy" | "keepalive" | "fast" | "push" — wire behaviour of this
    #: island's SOAP client/protocol (mixed-format worlds exercise
    #: negotiation; "push" adds streamed event channels).
    interchange: str
    poll_interval: float

    @property
    def segment_name(self) -> str | None:
        suffix = _SEGMENT_SUFFIX.get(self.kind)
        return f"{self.name}{suffix}" if suffix else None


@dataclass(frozen=True)
class TopologySpec:
    seed: int
    islands: tuple[IslandSpec, ...]
    obs_enabled: bool
    deadline: float
    max_retries: int
    breaker_threshold: int
    heartbeat_interval: float
    #: Directory federation (scale band): 0 = the home's single
    #: directory; >=1 builds a sharded, replicated plane
    #: (``repro.core.shard``) with this many shards...
    federation_shards: int = 0
    #: ...each replicated this many ways.
    federation_replicas: int = 1
    #: Pure-data island stubs seeded straight into the shard primaries
    #: after connect (no gateway stacks — see testkit.scale_profile).
    stub_islands: int = 0

    @property
    def service_names(self) -> list[str]:
        return [name for island in self.islands for name in island.services]

    @property
    def island_names(self) -> list[str]:
        return [island.name for island in self.islands]

    @property
    def directory_node_names(self) -> list[str]:
        """The directory plane's backbone node names (one for the single
        directory, N*R replicas otherwise)."""
        if self.federation_shards <= 0 or (
            self.federation_shards == 1 and self.federation_replicas == 1
        ):
            return ["uddi-directory"]
        return [
            f"vsr-s{shard}r{replica}"
            for shard in range(self.federation_shards)
            for replica in range(self.federation_replicas)
        ]

    @property
    def node_names(self) -> list[str]:
        """Every backbone node a fault can target."""
        return self.directory_node_names + [
            f"gw-{island.name}" for island in self.islands
        ]

    @property
    def segment_names(self) -> list[str]:
        names = ["backbone"]
        for island in self.islands:
            if island.segment_name:
                names.append(island.segment_name)
        return names

    def describe(self) -> str:
        lines = [
            f"topology seed={self.seed}: {len(self.islands)} islands, "
            f"{len(self.service_names)} services, "
            f"deadline={self.deadline:g}s retries={self.max_retries} "
            f"breaker={self.breaker_threshold} "
            f"heartbeat={self.heartbeat_interval:g}s "
            f"obs={'on' if self.obs_enabled else 'off'}"
        ]
        if self.federation_shards:
            lines.append(
                f"  federation: {self.federation_shards} shards x "
                f"{self.federation_replicas} replicas, "
                f"{self.stub_islands} stub islands"
            )
        for island in self.islands:
            lines.append(
                f"  {island.name} ({island.kind}, {island.interchange}, "
                f"poll={island.poll_interval:g}s): "
                f"{len(island.services)} services"
            )
        return "\n".join(lines)


class TopologyGen:
    """Draws a random :class:`TopologySpec` from a seed.

    ``profile`` selects the interchange mix: the ``"default"`` profile
    keeps the historical draw (so every pinned corpus and sweep seed
    replays byte-identically), while ``"push"`` mixes push-capable
    islands in with legacy ones so seeds in that band exercise streamed
    event channels *and* their polling fallback against mixed peers.
    """

    MIN_ISLANDS = 2
    MAX_ISLANDS = 6
    MIN_SERVICES = 1
    MAX_SERVICES = 20

    _INTERCHANGE_DRAWS = {
        "default": (("legacy", "keepalive", "fast"), (40, 25, 35)),
        "push": (("legacy", "keepalive", "fast", "push"), (25, 10, 20, 45)),
        # Rules seeds lean even harder on push so trigger events mostly
        # ride streamed channels, but keep legacy islands in the mix so
        # redelivered (at-least-once) events hit the engines' dedup.
        "rules": (("legacy", "fast", "push"), (20, 20, 60)),
        # Reactor seeds lean on the vectored/pipelined substrate while
        # keeping every older wire shape in the mix, so coalesced
        # transmissions interoperate with legacy peers under faults.
        "reactor": (("legacy", "fast", "push", "reactor"), (15, 15, 20, 50)),
        # Telemetry seeds favour push (reports stream over channels) but
        # keep legacy/fast islands so delta reports also ride the polling
        # fallback and its redelivery duplicates hit the collector dedup.
        "telemetry": (("legacy", "fast", "push", "reactor"), (15, 20, 45, 20)),
        # Persistence seeds favour push so crashes hit retained unacked
        # batches and channel re-establishment, but keep legacy/fast/
        # reactor islands so WAL recovery also rides plain polling and
        # vectored wires (the restart matrix in miniature, seeded).
        "persistence": (("legacy", "fast", "push", "reactor"), (20, 15, 45, 20)),
        # Scale seeds (federated directory, thousands of stub islands)
        # lean on fast/reactor wires — lookup throughput is the point —
        # with legacy islands kept in so the ring-aware client also rides
        # the one-shot wire.  No push weight: event channels add nothing
        # to directory scaling and the subscribe weight is zero anyway.
        "scale": (("legacy", "fast", "reactor"), (25, 40, 35)),
    }

    def generate(self, seed: int, profile: str = "default") -> TopologySpec:
        choices, weights = self._INTERCHANGE_DRAWS[profile]
        rng = random.Random(f"testkit:topology:{seed}")
        islands = []
        for index in range(rng.randint(self.MIN_ISLANDS, self.MAX_ISLANDS)):
            kind = rng.choice(ISLAND_KINDS)
            name = f"{kind}{index}"
            services = tuple(
                f"Svc_{name}_{slot}"
                for slot in range(rng.randint(self.MIN_SERVICES, self.MAX_SERVICES))
            )
            interchange = rng.choices(choices, weights=weights)[0]
            islands.append(
                IslandSpec(
                    name=name,
                    kind=kind,
                    services=services,
                    interchange=interchange,
                    poll_interval=rng.choice((1.0, 2.0, 5.0)),
                )
            )
        # Draw everything first (preserving the historical draw order so
        # non-telemetry bands replay byte-identically), then apply the
        # telemetry profile's floors: agents need a live registry to
        # snapshot and a heartbeat for the collector's staleness scoring.
        obs_draw = rng.random() < 0.5
        deadline = rng.choice((5.0, 10.0, 15.0))
        max_retries = rng.choice((0, 1, 2))
        breaker_threshold = rng.choice((0, 3, 5))
        heartbeat_interval = rng.choice((0.0, 0.0, 5.0, 10.0))
        if profile == "telemetry":
            obs_draw = True
            if heartbeat_interval == 0.0:
                heartbeat_interval = 5.0
        # Scale-band draws come *after* every base draw so the shared RNG
        # prefix (and with it, every other band's scripts for the same
        # seed) stays byte-identical.
        federation_shards = 0
        federation_replicas = 1
        stub_islands = 0
        if profile == "scale":
            federation_shards = rng.choice((4, 8, 16))
            federation_replicas = rng.choice((2, 3))
            stub_islands = rng.choices((1000, 2000, 4000), weights=(50, 35, 15))[0]
            # Thousands of stub registrations sit in the gateway registry:
            # heartbeating them all would drown the band in ping traffic.
            heartbeat_interval = 0.0
        return TopologySpec(
            seed=seed,
            islands=tuple(islands),
            obs_enabled=obs_draw,
            deadline=deadline,
            max_retries=max_retries,
            breaker_threshold=breaker_threshold,
            heartbeat_interval=heartbeat_interval,
            federation_shards=federation_shards,
            federation_replicas=federation_replicas,
            stub_islands=stub_islands,
        )


# ---------------------------------------------------------------------------
# Live world
# ---------------------------------------------------------------------------


class SimService:
    """The one service implementation every generated island hosts."""

    def __init__(self) -> None:
        self.value = 0
        self.calls = 0

    def get(self) -> int:
        self.calls += 1
        return self.value

    def add(self, amount: int) -> int:
        self.calls += 1
        self.value += amount
        return self.value

    def echo(self, message: str) -> str:
        self.calls += 1
        return message

    def fail(self) -> None:
        self.calls += 1
        raise RuntimeError("SimService.fail always fails")


class SimServicePcm(ProtocolConversionManager):
    """PCM hosting :class:`SimService` instances for one generated island.

    ``middleware_name`` is per-instance (the island's kind) so exported
    WSDL context looks like a heterogeneous home, not five clones.
    """

    def __init__(
        self,
        vsg: Any,
        kind: str,
        services: dict[str, SimService],
    ) -> None:
        super().__init__(vsg)
        self.middleware_name = kind
        self.services = services
        self.facades: dict[str, Any] = {}

    def _discover_local_services(self) -> SimFuture:
        discovered = []
        for name, service in self.services.items():
            def handler(operation: str, args: list, _svc: SimService = service) -> Any:
                return getattr(_svc, operation)(*args)

            discovered.append(
                (name, service_interface(name), handler, {"kind": self.middleware_name})
            )
        return SimFuture.completed(discovered)

    def _materialise(self, document: Any, interface: ServiceInterface) -> SimFuture:
        self.facades[document.service] = self.remote_proxy(document)
        return SimFuture.completed(True)


_INTERCHANGE = {
    "legacy": None,  # framework default = legacy wire behaviour
    "keepalive": InterchangeConfig(keep_alive=True),
    "fast": FAST_INTERCHANGE,
    "push": PUSH_INTERCHANGE,
    "reactor": REACTOR_INTERCHANGE,
}


@dataclass
class World:
    """Everything a run (and its oracles) needs a handle on."""

    spec: TopologySpec
    sim: Simulator
    network: Network
    backbone: Segment
    mm: MetaMiddleware
    monitor: TrafficMonitor
    obs: Observability | None
    services: dict[str, SimService]
    service_island: dict[str, str]
    pcms: dict[str, SimServicePcm] = field(default_factory=dict)
    #: Rule engines installed by the "rules" profile, keyed by host
    #: island (empty on every other profile); see testkit.rules_profile.
    rule_engines: dict[str, Any] = field(default_factory=dict)
    #: Flight recorders, one per gateway node (installed for every
    #: profile by the runner); see testkit.blackbox.
    flight: dict[str, Any] = field(default_factory=dict)
    #: Telemetry agents keyed by island + the single collector, installed
    #: by the "telemetry" profile; see testkit.telemetry_profile.
    telemetry_agents: dict[str, Any] = field(default_factory=dict)
    telemetry_collector: Any = None
    #: WAL journals installed by the "persistence" profile: one
    #: GatewayJournal per island (keyed by island name) plus the
    #: directory's DirectoryJournal; empty/None on every other profile.
    #: The journals' MemWalStores are the durable medium — owned here,
    #: outside any node, so crashes cannot touch them.
    journals: dict[str, Any] = field(default_factory=dict)
    directory_journal: Any = None
    #: The directory plane (``repro.core.shard.VsrFederation``): sharded
    #: and replicated on scale-profile seeds, the 1x1 plane elsewhere.
    federation: Any = None
    #: Names of the pure-data stub islands the scale profile seeded into
    #: the shard primaries (empty off the scale band); the vsr-islands
    #: oracle treats them as known.
    scale_stubs: tuple[str, ...] = ()

    @property
    def islands(self) -> dict[str, Island]:
        return self.mm.islands

    def segments(self) -> list[Segment]:
        return [self.network.segments[name] for name in self.spec.segment_names]

    def http_clients(self) -> list[tuple[str, Any]]:
        """Every pooled HTTP client the pool-leak oracle must audit.

        Event channels own a dedicated keep-alive client per remote
        gateway; ``channel_clients`` retains even dead ones, so a channel
        that leaked its connection past shutdown is still caught here.
        """
        clients = []
        for name, island in self.mm.islands.items():
            clients.append((f"{name}.protocol", island.gateway.protocol.client.http))
            clients.append((f"{name}.vsr", island.gateway.vsr.soap.http))
            for index, channel in enumerate(island.gateway.events.channel_clients):
                clients.append((f"{name}.events[{index}]", channel.http))
        return clients


def build_world(spec: TopologySpec, force_obs: bool = False) -> World:
    """Assemble the live world a spec describes (nothing has run yet)."""
    sim = Simulator()
    network = Network(sim)
    backbone = network.create_segment(EthernetSegment, "backbone")
    obs = Observability(sim) if (spec.obs_enabled or force_obs) else None
    policy = CallPolicy(
        deadline=spec.deadline,
        max_retries=spec.max_retries,
        breaker_threshold=spec.breaker_threshold,
        heartbeat_interval=spec.heartbeat_interval,
        # Directory round trips must be bounded too: an unanswerable
        # publish/withdraw would otherwise hang a workload future forever
        # and fail the call-completion oracle on a healthy world.
        directory_deadline=spec.deadline,
        seed=spec.seed,
    )
    federation_config = None
    if spec.federation_shards > 0:
        from repro.core.shard import FederationConfig

        federation_config = FederationConfig(
            shards=spec.federation_shards,
            replicas=spec.federation_replicas,
            ring_seed=f"testkit:ring:{spec.seed}",
            sync_interval=2.0,
            find_deadline=spec.deadline,
        )
    mm = MetaMiddleware(
        network, backbone, policy=policy, obs=obs, federation=federation_config
    )
    monitor = TrafficMonitor()
    monitor.watch(backbone)

    world = World(
        spec=spec,
        sim=sim,
        network=network,
        backbone=backbone,
        mm=mm,
        monitor=monitor,
        obs=obs,
        services={},
        service_island={},
        federation=mm.federation,
    )

    for ispec in spec.islands:
        segment: Segment | None = None
        if ispec.segment_name:
            cls = IEEE1394Segment if ispec.kind == "havi" else EthernetSegment
            segment = network.create_segment(cls, ispec.segment_name)
            monitor.watch(segment)
        services = {name: SimService() for name in ispec.services}
        world.services.update(services)
        for name in ispec.services:
            world.service_island[name] = ispec.name

        def pcm_factory(
            island: Island,
            _kind: str = ispec.kind,
            _services: dict[str, SimService] = services,
        ) -> SimServicePcm:
            return SimServicePcm(island.gateway, _kind, _services)

        mm.add_island(
            ispec.name,
            segment,
            pcm_factory=pcm_factory,
            poll_interval=ispec.poll_interval,
            interchange=_INTERCHANGE[ispec.interchange],
        )
        world.pcms[ispec.name] = mm.islands[ispec.name].pcm  # type: ignore[assignment]

    return world
