"""Sharded, replicated VSR federation.

One :class:`repro.core.vsr.VsrDirectory` per home federation is the
scalability wall on the road to "millions of homes": every lookup,
registration and poll-loop heartbeat funnels through one node.  This
module splits the logically-global directory into N shards placed by a
deterministic consistent-hash ring, replicates each shard R ways, and
converges the replicas with a pull-based anti-entropy protocol — the
regional-catalogue shape of federated grid registries (see
docs/FEDERATION.md for the protocol write-up and convergence bounds).

Layers:

- :class:`HashRing` — seeded consistent hashing with virtual nodes;
  placement is a pure function of ``(seed, shards, virtual_nodes)`` so
  every client, the facade and the testkit oracle agree without talking.
- :class:`ReplicaDirectory` — a :class:`VsrDirectory` that also keeps a
  per-origin operation ledger with Lamport-stamped last-writer-wins
  registers, the substrate anti-entropy syncs over.
- :class:`FederatedUddiService` — the plain UDDI surface plus
  ``sync_digest`` and ``sync_pull`` (anti-entropy), and an optional
  service-time queue so benchmarks can model a saturated directory.
- :class:`ReplicaSyncAgent` — drift-free digest/delta pulls between a
  replica and its shard siblings.
- :class:`VsrFederation` — builds the whole plane on backbone nodes and
  presents a merged in-process view of it through :class:`FederationView`.

The default plane (1 shard, 1 replica) is the home's single directory:
one node named ``uddi-directory`` holding a plain :class:`VsrDirectory`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import DirectoryUnavailableError
from repro.net.addressing import NodeAddress
from repro.net.network import Network
from repro.net.segment import Segment
from repro.net.simkernel import SimFuture, Simulator
from repro.net.transport import TransportStack
from repro.obs import NOOP_OBS
from repro.core.vsr import (
    UDDI_SERVICE_NAME,
    UddiSoapService,
    VsrDirectory,
    gateway_ring_key,
)
from repro.soap.client import SoapClient
from repro.soap.server import SoapServer
from repro.soap.wsdl import WsdlDocument

__all__ = [
    "FederationConfig",
    "FederationRouting",
    "FederatedUddiService",
    "FederationView",
    "HashRing",
    "ReplicaDirectory",
    "ReplicaEndpoint",
    "ReplicaSyncAgent",
    "ShardLoadModel",
    "VsrFederation",
    "gateway_ring_key",
]


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------


def _ring_hash(data: str) -> int:
    """First 8 bytes of SHA-1, big-endian — stable across runs, platforms
    and Python versions (``hash()`` is salted; never use it for placement)."""
    return int.from_bytes(hashlib.sha1(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Seeded consistent hashing: ``virtual_nodes`` points per shard on a
    64-bit ring; a key belongs to the first point at or after its hash.

    Placement is deterministic given ``(seed, shards, virtual_nodes)``,
    so ring-aware clients need no coordination, and growing the shard
    count moves only the keys that land on the new shard's points
    (:meth:`moved_keys` quantifies the rebalance)."""

    def __init__(self, shards: int, virtual_nodes: int = 64, seed: str = "vsr-ring") -> None:
        if shards < 1:
            raise ValueError("a ring needs at least one shard")
        if virtual_nodes < 1:
            raise ValueError("a ring needs at least one virtual node per shard")
        self.shards = shards
        self.virtual_nodes = virtual_nodes
        self.seed = seed
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(virtual_nodes):
                points.append((_ring_hash(f"{seed}|{shard}|{vnode}"), shard))
        points.sort()
        self._points = points
        self._hashes = [point for point, _shard in points]

    def owner(self, key: str) -> int:
        """The shard that owns ``key``."""
        if self.shards == 1:
            return 0
        index = bisect.bisect_right(self._hashes, _ring_hash(key))
        if index == len(self._hashes):
            index = 0  # wrap: past the last point belongs to the first
        return self._points[index][1]

    def dump(self) -> dict:
        """JSON-ready ring description (CI uploads these next to failing
        scale-band repros so placement can be inspected offline)."""
        return {
            "seed": self.seed,
            "shards": self.shards,
            "virtual_nodes": self.virtual_nodes,
            "points": [[point, shard] for point, shard in self._points],
        }

    @staticmethod
    def moved_keys(old: "HashRing", new: "HashRing", keys: list[str]) -> list[str]:
        """The subset of ``keys`` whose owner changes between two rings —
        the data that must migrate on a shard join/leave."""
        return [key for key in keys if old.owner(key) != new.owner(key)]


# ---------------------------------------------------------------------------
# Configuration and routing
# ---------------------------------------------------------------------------


#: Max ops per ``sync_pull`` page (bounds one transfer's wire bytes).
SYNC_PAGE = 1000
#: Deadline (virtual seconds) on each sync round trip, so a crashed peer
#: cannot wedge the agent's in-flight guard.
SYNC_DEADLINE = 30.0


@dataclass(frozen=True)
class FederationConfig:
    """Knobs for one federation plane (all virtual-time seconds).  The
    default is the home's single directory: one shard, one replica."""

    shards: int = 1
    replicas: int = 1
    ring_seed: str = "vsr-ring"
    #: Anti-entropy digest cadence per replica (drift-free schedule).
    sync_interval: float = 2.0
    #: Per-shard deadline on scatter-gather reads (0 = client's own).
    find_deadline: float = 0.0


@dataclass(frozen=True)
class ReplicaEndpoint:
    """Where one replica answers UDDI calls."""

    name: str
    address: NodeAddress
    port: int


class FederationRouting:
    """What a :class:`repro.core.vsr.VsrClient` needs: the ring plus every
    shard's replica endpoints (primary first)."""

    def __init__(
        self,
        ring: HashRing,
        endpoints: list[list[ReplicaEndpoint]],
        config: FederationConfig,
    ) -> None:
        self.ring = ring
        self.endpoints: tuple[tuple[ReplicaEndpoint, ...], ...] = tuple(
            tuple(group) for group in endpoints
        )
        self.config = config

    @property
    def shard_count(self) -> int:
        return len(self.endpoints)

    def owner(self, key: str) -> int:
        return self.ring.owner(key)

    def replicas(self, shard: int) -> tuple[ReplicaEndpoint, ...]:
        return self.endpoints[shard]


# ---------------------------------------------------------------------------
# Replicated directory
# ---------------------------------------------------------------------------


class ReplicaDirectory(VsrDirectory):
    """A directory shard replica: the plain :class:`VsrDirectory` tables
    plus the replication substrate — a per-origin append-only operation
    ledger and Lamport-stamped last-writer-wins registers per key.

    Every local mutation appends an op under this replica's ``origin``;
    anti-entropy ships contiguous per-origin suffixes between replicas
    (:meth:`version_vector` / :meth:`deltas_since` / :meth:`apply_delta`).
    Merge is LWW on ``(lamport, origin)`` — total, deterministic, and
    order-independent, so two replicas that hold the same op sets hold
    the same tables regardless of delivery order.  Withdraw/unregister
    are recorded as tombstone ops: an explicit removal beats an older
    publish however late it arrives."""

    def __init__(self, shard_id: int, replica_id: str) -> None:
        super().__init__()
        self.shard_id = shard_id
        self.replica_id = replica_id
        #: Current origin for locally-born ops.  Reincarnated on cold
        #: recovery (``replica_id+N``) so peers that already pulled the
        #: pre-crash stream still pull the rebuilt one.
        self.origin = replica_id
        self.lamport = 0
        self._log: dict[str, list[dict]] = {}
        self._stamps: dict[tuple[str, str], tuple[int, str]] = {}

    # -- local mutations (record, then apply) --------------------------------

    def _record(self, kind: str, key: str, payload: str | None) -> None:
        self.lamport += 1
        ledger = self._log.setdefault(self.origin, [])
        ledger.append(
            {
                "kind": kind,
                "key": key,
                "payload": payload,
                "lamport": self.lamport,
                "origin": self.origin,
                "seq": len(ledger) + 1,
            }
        )
        group = "gw" if kind in ("register", "unregister") else "doc"
        self._stamps[(group, key)] = (self.lamport, self.origin)

    def publish(self, document: WsdlDocument) -> None:
        self._record("publish", document.service, document.to_xml().decode("utf-8"))
        super().publish(document)

    def withdraw(self, service: str) -> bool:
        self._record("withdraw", service, None)
        return super().withdraw(service)

    def register_gateway(self, island: str, location: str) -> None:
        self._record("register", island, location)
        super().register_gateway(island, location)

    def unregister_gateway(self, island: str) -> bool:
        self._record("unregister", island, None)
        return super().unregister_gateway(island)

    # -- anti-entropy --------------------------------------------------------

    def version_vector(self) -> dict[str, int]:
        """``origin -> ops held`` (ledgers are per-origin contiguous, so a
        count pins down exactly which ops this replica has)."""
        return {origin: len(ops) for origin, ops in self._log.items()}

    def deltas_since(self, vv: dict[str, int], limit: int = 1000) -> list[dict]:
        """Up to ``limit`` ops the caller is missing, per-origin contiguous
        (so :meth:`apply_delta` never sees a gap within one page)."""
        out: list[dict] = []
        for origin in sorted(self._log):
            ops = self._log[origin]
            known = int(vv.get(origin, 0))
            if known >= len(ops):
                continue
            for op in ops[known:]:
                out.append(op)
                if len(out) >= limit:
                    return out
        return out

    def apply_delta(self, ops: list[dict]) -> int:
        """Fold pulled ops into the ledger and tables; returns how many
        were new.  Duplicates are skipped; an out-of-order op (gap) is
        dropped — the next pull's version vector re-requests it."""
        applied = 0
        for op in ops:
            origin = str(op["origin"])
            seq = int(op["seq"])
            ledger = self._log.setdefault(origin, [])
            if seq <= len(ledger):
                continue  # already have it
            if seq != len(ledger) + 1:
                continue  # gap — wait for the re-pull
            ledger.append(dict(op))
            self._apply_remote(op)
            applied += 1
        return applied

    def _apply_remote(self, op: dict) -> None:
        kind = str(op["kind"])
        key = str(op["key"])
        group = "gw" if kind in ("register", "unregister") else "doc"
        stamp = (int(op["lamport"]), str(op["origin"]))
        self.lamport = max(self.lamport, stamp[0])
        current = self._stamps.get((group, key))
        if current is not None and current >= stamp:
            return  # we hold a newer verdict for this key
        self._stamps[(group, key)] = stamp
        # Tables are written directly — no ``_notify``: change listeners
        # hang off the primary that took the original write, and a replica
        # must not replay notifications the federation already delivered.
        if kind == "publish":
            payload = str(op["payload"])
            self._store_document(WsdlDocument.from_xml(payload))
            self.publishes += 1
            if self.journal is not None:
                self.journal.log_publish(key, payload)
        elif kind == "withdraw":
            if self._delete_document(key) is not None and self.journal is not None:
                self.journal.log_withdraw(key)
        elif kind == "register":
            location = str(op["payload"])
            self._gateways[key] = location
            if self.journal is not None:
                self.journal.log_register(key, location)
        elif kind == "unregister":
            if self._gateways.pop(key, None) is not None and self.journal is not None:
                self.journal.log_unregister(key)

    # -- inspection ----------------------------------------------------------

    def canonical_state_json(self) -> str:
        """Deterministic serialization of the replicated tables — two
        converged replicas produce identical strings (the convergence
        oracle's yardstick)."""
        return json.dumps(
            {
                "documents": {
                    name: document.to_xml().decode("utf-8")
                    for name, document in sorted(self._documents.items())
                },
                "gateways": dict(sorted(self._gateways.items())),
            },
            sort_keys=True,
        )

    # -- durable state -------------------------------------------------------

    def cold_crash(self) -> None:
        super().cold_crash()
        if self.journal is None:
            return
        self._log.clear()
        self._stamps.clear()
        self.lamport = 0

    def cold_recover(self) -> None:
        super().cold_recover()
        if self.journal is None:
            return
        # Reincarnate: the WAL rebuilt the tables but the ledger died with
        # the process.  Re-record the restored state under a fresh origin
        # so peers (whose version vectors already cover the old stream)
        # can pull it; their newer ops still win LWW over these low
        # Lamport stamps, which is exactly right.
        self.origin = f"{self.replica_id}+{self.recoveries}"
        for name in sorted(self._documents):
            self._record("publish", name, self._documents[name].to_xml().decode("utf-8"))
        for island in sorted(self._gateways):
            self._record("register", island, self._gateways[island])


# ---------------------------------------------------------------------------
# Per-replica SOAP facade
# ---------------------------------------------------------------------------


class ShardLoadModel:
    """An M/D/1-style service queue for one replica: each dispatched
    operation occupies the directory for ``service_time`` virtual seconds,
    FIFO behind whatever is already queued.  :meth:`inject` adds
    background work (e.g. the heartbeat load of thousands of stub
    islands) without any wire traffic — how the scale benchmark models a
    saturated single directory against a lightly-loaded 16-shard plane."""

    def __init__(self, sim: Simulator, service_time: float) -> None:
        self.sim = sim
        self.service_time = service_time
        self.busy_until = 0.0
        self.operations = 0

    def enqueue(self, cost: float | None = None) -> float:
        """Queue one operation; returns the delay until it completes."""
        cost = self.service_time if cost is None else cost
        now = self.sim.now
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + cost
        self.operations += 1
        return self.busy_until - now

    def inject(self, cost: float | None = None) -> None:
        """Background load: consumes service capacity, answers nobody."""
        self.enqueue(cost)


class FederatedUddiService(UddiSoapService):
    """The UDDI surface of one replica plus ``sync_digest``/``sync_pull``
    for anti-entropy (answered only by a :class:`ReplicaDirectory`).  With
    a :class:`ShardLoadModel` attached, every dispatch waits its turn in
    the replica's service queue."""

    def __init__(
        self,
        soap_server: SoapServer,
        directory: VsrDirectory,
        sim: Simulator,
        load: ShardLoadModel | None = None,
    ) -> None:
        super().__init__(soap_server, directory)
        self.sim = sim
        self.load = load

    def _dispatch(self, operation: str, args: list[Any]) -> Any:
        if self.load is None:
            return self._dispatch_inner(operation, args)
        delay = self.load.enqueue()
        if delay <= 0:
            return self._dispatch_inner(operation, args)
        result: SimFuture = SimFuture()

        def run() -> None:
            try:
                inner = self._dispatch_inner(operation, args)
            except Exception as exc:
                result.set_exception(exc)
                return
            if isinstance(inner, SimFuture):
                inner.relay(result)
            else:
                result.set_result(inner)

        self.sim.schedule(delay, run)
        return result

    def _dispatch_inner(self, operation: str, args: list[Any]) -> Any:
        if operation == "sync_digest":
            return {
                "replica": self.directory.replica_id,
                "vv": json.dumps(self.directory.version_vector()),
            }
        if operation == "sync_pull":
            vv = json.loads(str(args[0]))
            limit = int(args[1]) if len(args) > 1 else SYNC_PAGE
            return json.dumps(self.directory.deltas_since(vv, limit=limit))
        return super()._dispatch(operation, args)


# ---------------------------------------------------------------------------
# Anti-entropy agent
# ---------------------------------------------------------------------------


class ReplicaSyncAgent:
    """Pull-based anti-entropy for one replica.

    On a drift-free schedule (round *n* fires at ``epoch + n·interval``
    regardless of how long round *n-1* took) the agent asks one shard
    sibling — round-robin — for its version-vector digest.  Equal vectors
    mean converged (``last_converged_at`` advances); otherwise the agent
    pulls delta pages until it has caught up.  Every replica runs one
    agent, so ops flow both ways within a round trip of each other; a
    deadline on each call keeps a crashed peer from wedging the in-flight
    guard."""

    def __init__(
        self,
        sim: Simulator,
        stack: TransportStack,
        directory: ReplicaDirectory,
        peers: list[ReplicaEndpoint],
        config: FederationConfig,
        obs: Any = None,
        label: str = "",
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.peers = tuple(peers)
        self.config = config
        self.soap = SoapClient(stack, None)
        if obs is not None:
            self.soap.observe(obs, f"{label}.sync" if label else "sync")
        self.digest_rounds = 0
        self.digest_mismatches = 0
        self.deltas_pulled = 0
        self.sync_failures = 0
        self.rounds_skipped = 0
        #: Virtual time of the last round that found (or produced) equal
        #: vectors with a peer; None until the first such round.
        self.last_converged_at: float | None = None
        self.started_at = 0.0
        self._round = 0
        self._running = False
        self._in_flight = False
        self._event: Any = None

    def start(self) -> None:
        if self._running or not self.peers:
            return
        self._running = True
        self.started_at = self.sim.now
        self._round = 0
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def convergence_lag(self) -> float:
        """Seconds since this replica last observed convergence (0 before
        the agent starts)."""
        if not self._running and self.last_converged_at is None:
            return 0.0
        anchor = self.last_converged_at if self.last_converged_at is not None else self.started_at
        return max(0.0, self.sim.now - anchor)

    def stats(self) -> dict:
        return {
            "digest_rounds": self.digest_rounds,
            "digest_mismatches": self.digest_mismatches,
            "deltas_pulled": self.deltas_pulled,
            "sync_failures": self.sync_failures,
            "rounds_skipped": self.rounds_skipped,
            "last_converged_at": self.last_converged_at,
            "convergence_lag": self.convergence_lag,
        }

    # -- internals -----------------------------------------------------------

    def _schedule_next(self) -> None:
        if not self._running:
            return
        self._round += 1
        target = self.started_at + self._round * self.config.sync_interval
        self._event = self.sim.at(target, self._tick)

    def _tick(self) -> None:
        self._event = None
        if not self._running:
            return
        self._schedule_next()
        if self._in_flight:
            self.rounds_skipped += 1  # previous round still syncing
            return
        self._in_flight = True
        peer = self.peers[(self._round - 1) % len(self.peers)]
        self.digest_rounds += 1
        self._call(peer, "sync_digest", []).add_done_callback(
            lambda future: self._on_digest(peer, future)
        )

    def _call(self, peer: ReplicaEndpoint, operation: str, args: list[Any]) -> SimFuture:
        raw = self.soap.call(
            peer.address, UDDI_SERVICE_NAME, operation, args, port=peer.port
        )
        return raw.within(
            self.sim,
            SYNC_DEADLINE,
            lambda: DirectoryUnavailableError(
                f"sync peer {peer.name} did not answer {operation!r} "
                f"within {SYNC_DEADLINE}s"
            ),
        )

    def _fail(self) -> None:
        self.sync_failures += 1
        self._in_flight = False

    def _on_digest(self, peer: ReplicaEndpoint, future: SimFuture) -> None:
        if future.exception() is not None:
            self._fail()
            return
        try:
            peer_vv = json.loads(str(dict(future.result())["vv"]))
        except (KeyError, TypeError, ValueError):
            self._fail()
            return
        mine = self.directory.version_vector()
        behind = any(
            int(count) > mine.get(origin, 0) for origin, count in peer_vv.items()
        )
        if not behind:
            self.last_converged_at = self.sim.now
            self._in_flight = False
            return
        self.digest_mismatches += 1
        self._pull(peer)

    def _pull(self, peer: ReplicaEndpoint) -> None:
        vv = self.directory.version_vector()

        def on_page(future: SimFuture) -> None:
            if future.exception() is not None:
                self._fail()
                return
            try:
                ops = json.loads(str(future.result()))
            except (TypeError, ValueError):
                self._fail()
                return
            if not ops:
                # Nothing left to pull: caught up with this peer.
                self.last_converged_at = self.sim.now
                self._in_flight = False
                return
            applied = self.directory.apply_delta(ops)
            self.deltas_pulled += applied
            if applied == 0:
                # A full page of ops we already hold (a concurrent pull
                # raced us): stop rather than spin on the same page.
                self._in_flight = False
                return
            self._pull(peer)  # next page against the advanced vector

        self._call(
            peer, "sync_pull", [json.dumps(vv), SYNC_PAGE]
        ).add_done_callback(on_page)


# ---------------------------------------------------------------------------
# The assembled plane
# ---------------------------------------------------------------------------


class ShardReplica:
    """One physical directory node and everything mounted on it."""

    def __init__(
        self,
        node: Any,
        stack: TransportStack,
        server: SoapServer,
        directory: VsrDirectory,
        service: UddiSoapService,
        endpoint: ReplicaEndpoint,
        load: ShardLoadModel | None = None,
    ) -> None:
        self.node = node
        self.stack = stack
        self.server = server
        self.directory = directory
        self.service = service
        self.endpoint = endpoint
        self.load = load
        self.agent: ReplicaSyncAgent | None = None


class FederationView:
    """Direct (in-process, non-wire) access to the whole plane: keyed
    writes go to the ring owner's primary, sweeps merge across shard
    primaries.  What scale seeding, benchmarks and the testkit oracles
    use where they need every shard, not shard 0's primary at
    ``mm.uddi.directory``."""

    def __init__(self, federation: "VsrFederation") -> None:
        self._federation = federation

    def _primary(self, key: str) -> VsrDirectory:
        shard = self._federation.ring.owner(key)
        return self._federation.replicas[shard][0].directory

    def _primaries(self) -> list[VsrDirectory]:
        return [group[0].directory for group in self._federation.replicas]

    def publish(self, document: WsdlDocument) -> None:
        self._primary(document.service).publish(document)

    def find(self, context_filter: dict[str, str] | None = None) -> list[WsdlDocument]:
        merged: dict[str, WsdlDocument] = {}
        for directory in self._primaries():
            for document in directory.find(context_filter):
                merged[document.service] = document
        return sorted(merged.values(), key=lambda document: document.service)

    def register_gateway(self, island: str, location: str) -> None:
        self._primary(gateway_ring_key(island)).register_gateway(island, location)

    def gateways(self) -> dict[str, str]:
        merged: dict[str, str] = {}
        for directory in self._primaries():
            merged.update(directory.gateways())
        return merged


class VsrFederation:
    """Builds and owns the whole directory plane: N×R replica nodes on the
    backbone, their SOAP servers and facades, and (R>1) the anti-entropy
    agents.  The default 1×1 plane is the home's single directory, one
    node named ``uddi-directory``.

    Two rules follow from the topology.  Only a replica with shard
    siblings keeps the anti-entropy ledger (:class:`ReplicaDirectory`):
    on a sole replica it would cost about ten times the host time and
    memory of a plain :class:`VsrDirectory` per publish and nobody would
    ever pull it.  And a sole replica without a load model has nothing for
    :class:`FederatedUddiService` to add, so it gets the plain
    :class:`UddiSoapService`."""

    def __init__(
        self,
        network: Network,
        backbone: Segment,
        config: FederationConfig,
        port: int = 8080,
        obs: Any = None,
        load_model_factory: Callable[[Simulator], ShardLoadModel] | None = None,
    ) -> None:
        self.network = network
        self.sim: Simulator = network.sim
        self.backbone = backbone
        self.config = config
        self.port = port
        self.obs = obs if obs is not None else NOOP_OBS
        self.ring = HashRing(config.shards, seed=config.ring_seed)
        replicated = config.replicas > 1
        self.replicas: list[list[ShardReplica]] = []
        for shard in range(config.shards):
            group: list[ShardReplica] = []
            for index in range(config.replicas):
                name = (
                    "uddi-directory"
                    if config.shards == 1 and not replicated
                    else f"vsr-s{shard}r{index}"
                )
                node = network.create_node(name)
                network.attach(node, backbone)
                stack = TransportStack(node, network)
                server = SoapServer(stack, port).observe(self.obs, name)
                directory = ReplicaDirectory(shard, name) if replicated else VsrDirectory()
                self.obs.metrics.track(
                    f"directory.{name}", directory, "counter", ("cold_crashes", "recoveries")
                )
                load = load_model_factory(self.sim) if load_model_factory else None
                if replicated or load is not None:
                    service: UddiSoapService = FederatedUddiService(
                        server, directory, self.sim, load=load
                    )
                else:
                    service = UddiSoapService(server, directory)
                endpoint = ReplicaEndpoint(name, stack.local_address(backbone), port)
                group.append(
                    ShardReplica(node, stack, server, directory, service, endpoint, load)
                )
            self.replicas.append(group)
        self.agents: list[ReplicaSyncAgent] = []
        if replicated:
            for group in self.replicas:
                for index, replica in enumerate(group):
                    peers = [
                        sibling.endpoint
                        for position, sibling in enumerate(group)
                        if position != index
                    ]
                    agent = ReplicaSyncAgent(
                        self.sim,
                        replica.stack,
                        replica.directory,
                        peers,
                        config,
                        obs=self.obs,
                        label=replica.endpoint.name,
                    )
                    replica.agent = agent
                    self.agents.append(agent)
        self.view = FederationView(self)
        self._started = False

    # -- wiring ---------------------------------------------------------------

    def routing(self) -> FederationRouting:
        """The per-client routing handle (ring + endpoints, primary first)."""
        return FederationRouting(
            self.ring,
            [[replica.endpoint for replica in group] for group in self.replicas],
            self.config,
        )

    def start_sync(self) -> None:
        """Start every anti-entropy agent (idempotent)."""
        if self._started:
            return
        self._started = True
        for agent in self.agents:
            agent.start()

    def stop(self) -> None:
        self._started = False
        for agent in self.agents:
            agent.stop()

    def close(self) -> None:
        self.stop()
        for group in self.replicas:
            for replica in group:
                replica.server.close()

    # -- inspection -----------------------------------------------------------

    def shard_converged(self, shard: int) -> bool:
        """True when every *live* replica of ``shard`` holds the same
        version vector (dead nodes don't block the verdict — they catch
        up when they return).  A sole replica has nothing to converge
        with."""
        if len(self.replicas[shard]) == 1:
            return True
        vectors = [
            replica.directory.version_vector()
            for replica in self.replicas[shard]
            if replica.node.alive
        ]
        return all(vector == vectors[0] for vector in vectors[1:])

    def converged(self) -> bool:
        return all(self.shard_converged(shard) for shard in range(self.config.shards))

    def ring_dump(self) -> dict:
        dump = self.ring.dump()
        dump["endpoints"] = [
            [replica.endpoint.name for replica in group] for group in self.replicas
        ]
        return dump

    def stats(self) -> dict:
        per_shard = []
        for shard, group in enumerate(self.replicas):
            entries = []
            for replica in group:
                entry: dict[str, Any] = {
                    "name": replica.endpoint.name,
                    "alive": replica.node.alive,
                    "keys_owned": replica.directory.keys_owned,
                    "services": replica.directory.service_count,
                    "gateways": len(replica.directory.gateways()),
                }
                if replica.agent is not None:
                    entry["lamport"] = replica.directory.lamport
                    entry.update(replica.agent.stats())
                entries.append(entry)
            per_shard.append(
                {
                    "shard": shard,
                    "converged": self.shard_converged(shard),
                    "replicas": entries,
                }
            )
        return {
            "shards": self.config.shards,
            "replicas": self.config.replicas,
            "ring_points": self.ring_points,
            "converged": self.converged(),
            "per_shard": per_shard,
        }

    # -- telemetry gauges -------------------------------------------------------

    @property
    def ring_points(self) -> int:
        return len(self.ring._points)

    def observe(self, obs: Any) -> "VsrFederation":
        """Track shard/replica gauges on ``obs.metrics`` under
        ``vsr.fed.*``; every snapshot reads them live."""
        metrics = obs.metrics
        metrics.track("vsr.fed", self, "gauge", ["ring_points"])
        metrics.track("vsr.fed", self.config, "gauge", ["shards"])
        for group in self.replicas:
            for replica in group:
                prefix = f"vsr.fed.{replica.endpoint.name}"
                metrics.track(prefix, replica.directory, "gauge", ["keys_owned"])
                if replica.agent is not None:
                    metrics.track(
                        prefix,
                        replica.agent,
                        "gauge",
                        ["digest_rounds", "deltas_pulled", "convergence_lag"],
                    )
        return self
