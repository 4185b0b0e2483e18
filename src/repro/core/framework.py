"""MetaMiddleware — assembles gateways, PCMs and the repository.

The paper's Figure 1 topology: one VSG + PCM per middleware island, all
reachable over a backbone where the UDDI directory (the VSR's authoritative
copy) also lives.  ``connect()`` runs the paper's integration sequence:
every island exports its services (Client Proxies), then every island
imports every *foreign* service (Server Proxies) so local clients see them
natively.

Adding a new middleware later — the paper's headline "new middleware can be
participated in our framework effortlessly" — is :meth:`add_island`
followed by :meth:`refresh`, and is what experiment C5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import FrameworkError
from repro.net.network import Network
from repro.net.node import Node
from repro.net.segment import Segment
from repro.net.simkernel import SimFuture, Simulator
from repro.net.transport import TransportStack
from repro.obs import NOOP_OBS
from repro.soap.http import InterchangeConfig
from repro.soap.wsdl import WsdlDocument
from repro.core.gateway_soap import DEFAULT_GATEWAY_PORT, SoapGatewayProtocol
from repro.core.pcm import ProtocolConversionManager
from repro.core.resilience import CallPolicy
from repro.core.shard import FederationConfig, VsrFederation
from repro.core.vsg import GatewayProtocol, VirtualServiceGateway
from repro.core.vsr import VsrClient, too_few_seen

#: Builds a PCM for an island: receives the island record, returns the PCM.
PcmFactory = Callable[["Island"], ProtocolConversionManager]
#: Builds a gateway protocol for an island's stack.
ProtocolFactory = Callable[[TransportStack], GatewayProtocol]


@dataclass
class Island:
    """Everything belonging to one middleware island."""

    name: str
    segment: Segment | None
    node: Node
    stack: TransportStack
    gateway: VirtualServiceGateway
    pcm: ProtocolConversionManager | None = None
    #: Names of services imported into this island so far.
    imported: set[str] = field(default_factory=set)


class MetaMiddleware:
    """The assembled framework for one home."""

    def __init__(
        self,
        network: Network,
        backbone: Segment,
        directory_port: int = DEFAULT_GATEWAY_PORT,
        policy: CallPolicy | None = None,
        interchange: InterchangeConfig | None = None,
        obs: Any = None,
        federation: FederationConfig | None = None,
    ) -> None:
        self.network = network
        self.sim: Simulator = network.sim
        self.backbone = backbone
        #: Default resilience policy for islands that don't bring their own.
        self.policy = policy or CallPolicy()
        #: Default interchange config (None = legacy wire behaviour) used
        #: by islands that don't bring their own protocol factory.
        self.interchange = interchange
        #: Observability bundle (``repro.obs``) shared by every island and
        #: the directory; the default no-op bundle records nothing.
        self.obs = obs if obs is not None else NOOP_OBS
        self.islands: dict[str, Island] = {}
        # The directory plane (repro.core.shard); the default 1x1 plane is
        # the home's single UDDI directory.  The directory attributes are
        # shard 0's primary; the merged view of a sharded plane is
        # ``federation.view``.
        self.federation = VsrFederation(
            network,
            backbone,
            federation or FederationConfig(),
            port=directory_port,
            obs=self.obs,
        )
        primary = self.federation.replicas[0][0]
        self.directory_node = primary.node
        self.directory_stack = primary.stack
        self.uddi = primary.service

    # -- island management ----------------------------------------------------------

    def add_island(
        self,
        name: str,
        segment: Segment | str | None,
        pcm_factory: PcmFactory | None = None,
        protocol_factory: ProtocolFactory | None = None,
        poll_interval: float = 2.0,
        policy: CallPolicy | None = None,
        interchange: InterchangeConfig | None = None,
    ) -> Island:
        """Create the island's gateway node (multi-homed: island segment +
        backbone), VSG, and — if a factory is given — its PCM.  ``policy``
        overrides the framework-wide :class:`CallPolicy` for this island;
        ``interchange`` likewise overrides the framework-wide wire (legacy
        or modern) of the island's SOAP protocol and VSR client."""
        if name in self.islands:
            raise FrameworkError(f"island {name!r} already exists")
        if isinstance(segment, str):
            segment = self.network.segment(segment)
        policy = policy or self.policy
        interchange = interchange or self.interchange
        node = self.network.create_node(f"gw-{name}")
        self.network.attach(node, self.backbone)
        if segment is not None and segment is not self.backbone:
            self.network.attach(node, segment)
        stack = TransportStack(node, self.network)
        vsr_client = VsrClient(
            stack,
            self.federation.routing(),
            lookup_deadline=policy.directory_deadline,
            interchange=interchange,
            obs=self.obs,
            label=name,
        )
        if protocol_factory is None:
            protocol = SoapGatewayProtocol(stack, interchange=interchange)
        else:
            protocol = protocol_factory(stack)
        gateway = VirtualServiceGateway(
            name, node, stack, protocol, vsr_client,
            poll_interval=poll_interval, policy=policy, obs=self.obs,
        )
        island = Island(name=name, segment=segment, node=node, stack=stack, gateway=gateway)
        if pcm_factory is not None:
            island.pcm = pcm_factory(island)
        self.islands[name] = island
        return island

    def island(self, name: str) -> Island:
        try:
            return self.islands[name]
        except KeyError:
            raise FrameworkError(f"no island named {name!r}") from None

    # -- integration sequence ----------------------------------------------------------

    def connect(self) -> SimFuture:
        """Run the full integration: register gateways, export everything,
        import everything foreign.  Resolves to the service catalog."""
        self.federation.start_sync()
        return self._sequence(
            [self._register_gateways, self._export_all, self._import_all],
            final=self.catalog,
        )

    def refresh(self) -> SimFuture:
        """Re-run export/import to pick up islands or services added since
        the last connect (experiment C5's 'join effortlessly' path)."""
        return self.connect()

    def _register_gateways(self) -> SimFuture:
        futures = [
            island.gateway.register_with_directory() for island in self.islands.values()
        ]
        return _gather(futures)

    def _export_all(self) -> SimFuture:
        futures = [
            island.pcm.export_services()
            for island in self.islands.values()
            if island.pcm is not None
        ]
        return _gather(futures)

    def _import_all(self) -> SimFuture:
        result: SimFuture = SimFuture()
        any_island = next(iter(self.islands.values()), None)
        if any_island is None:
            result.set_result([])
            return result

        def on_catalog(future: SimFuture) -> None:
            exc = future.exception()
            if exc is not None:
                result.set_exception(exc)
                return
            documents: list[WsdlDocument] = future.result()
            imports: list[SimFuture] = []
            for island in self.islands.values():
                if island.pcm is None:
                    continue
                for document in documents:
                    origin = document.context.get("island", "")
                    if origin == island.name or document.service in island.imported:
                        continue
                    island.imported.add(document.service)
                    imports.append(island.pcm.import_service(document))
            _gather(imports).add_done_callback(
                lambda done: result.set_exception(done.exception())
                if done.exception() is not None
                else result.set_result(done.result())
            )

        self.catalog().add_done_callback(on_catalog)
        return result

    # -- queries ------------------------------------------------------------

    def catalog(self) -> SimFuture:
        """Resolve to every WSDL document the VSR holds.  Fails when the
        directory answered nothing at all: an empty degraded result is
        blindness, not an empty home (see :func:`too_few_seen`)."""
        any_island = next(iter(self.islands.values()), None)
        if any_island is None:
            return SimFuture.completed([])
        result: SimFuture = SimFuture()

        def on_found(done: SimFuture) -> None:
            exc = done.exception() or too_few_seen(done.result(), 1)
            if exc is not None:
                result.set_exception(exc)
            else:
                result.set_result(done.result())

        any_island.gateway.vsr.find({}).add_done_callback(on_found)
        return result

    def shutdown(self) -> None:
        for island in self.islands.values():
            if island.pcm is not None:
                island.pcm.shutdown()
            island.gateway.shutdown()
        self.federation.close()

    # -- plumbing ------------------------------------------------------------

    def _sequence(self, steps: list[Callable[[], SimFuture]], final: Callable[[], SimFuture]) -> SimFuture:
        result: SimFuture = SimFuture()

        def run_step(index: int) -> None:
            if index >= len(steps):
                final().add_done_callback(
                    lambda f: result.set_exception(f.exception())
                    if f.exception() is not None
                    else result.set_result(f.result())
                )
                return
            step_future = steps[index]()

            def on_done(future: SimFuture) -> None:
                exc = future.exception()
                if exc is not None:
                    result.set_exception(exc)
                else:
                    run_step(index + 1)

            step_future.add_done_callback(on_done)

        run_step(0)
        return result


def _gather(futures: list[SimFuture]) -> SimFuture:
    """Resolve to the list of results once every future resolves; fail on
    the first failure (but only after all have settled is not required)."""
    result: SimFuture = SimFuture()
    if not futures:
        result.set_result([])
        return result
    remaining = {"count": len(futures)}
    values: list[Any] = [None] * len(futures)

    def make_callback(index: int):
        def on_done(future: SimFuture) -> None:
            exc = future.exception()
            if exc is not None:
                if not result.done():
                    result.set_exception(exc)
                return
            values[index] = future.result()
            remaining["count"] -= 1
            if remaining["count"] == 0 and not result.done():
                result.set_result(values)

        return on_done

    for index, future in enumerate(futures):
        future.add_done_callback(make_callback(index))
    return result
