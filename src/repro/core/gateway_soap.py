"""SOAP binding of the VSG interchange protocol — the prototype's choice.

Paper Section 4.1: "we have used Apache SOAP ... for VSG. Currently, the
protocol of VSG is SOAP".  Each exported neutral service becomes a SOAP
service on the gateway's HTTP endpoint; neutral calls become SOAP RPC.

Events: SOAP-over-HTTP cannot push ("HTTP is inherently a client/server
protocol, which does not map well to asynchronous notification scenarios",
Section 4.2), so the binding exposes a ``_gateway`` control service with
``subscribe`` and ``fetch_events`` operations, and subscribers poll.
Experiment C3 measures exactly the latency/overhead consequences.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import GatewayError, SoapFault
from repro.net.addressing import NodeAddress
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.soap import envelope
from repro.soap.channel import (
    EVENT_MAX_HOLD,
    EVENTS_CONTENT_TYPE,
    EVENTS_PATH,
    EventChannelClient,
)
from repro.soap.client import SoapClient
from repro.soap.http import (
    LEGACY_INTERCHANGE,
    HttpRequest,
    HttpResponse,
    InterchangeConfig,
    compress_past_floor,
)
from repro.soap.server import SoapServer
from repro.soap.wsdl import make_location, parse_location
from repro.core.calls import ServiceCall, ServiceFault
from repro.core.vsg import GatewayProtocol, VirtualServiceGateway

CONTROL_SERVICE = "_gateway"
DEFAULT_GATEWAY_PORT = 8080


class SoapGatewayProtocol(GatewayProtocol):
    """SOAP/HTTP gateway binding.

    The :class:`InterchangeConfig` picks the wire of *outbound* calls and
    event subscriptions only: a modern island pools keep-alive
    connections, negotiates terse gzip envelopes per peer and opens push
    event channels.  The server side always mounts the ``/events`` route,
    answers modern clients in kind and legacy clients byte-identically,
    so mixed federations interoperate.
    """

    name = "soap"
    supports_push = False

    def __init__(
        self,
        stack: TransportStack,
        port: int = DEFAULT_GATEWAY_PORT,
        interchange: InterchangeConfig | None = None,
    ) -> None:
        self.stack = stack
        self.port = port
        self.interchange = interchange or LEGACY_INTERCHANGE
        self.server: SoapServer | None = None
        self.client = SoapClient(stack, self.interchange)
        self.vsg: VirtualServiceGateway | None = None
        self._exported: set[str] = set()
        #: Location -> its (address, port, service), parsed once: a
        #: gateway calls, polls and pings the same few peer endpoints all
        #: its life.  Only locations that parsed are kept.
        self._endpoints: dict[str, tuple[NodeAddress, int, str]] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self, vsg: VirtualServiceGateway) -> None:
        self.vsg = vsg
        self.client.observe(vsg.obs, vsg.island)
        self.server = SoapServer(self.stack, self.port).observe(vsg.obs, vsg.island)
        self.server.register_service(CONTROL_SERVICE, self._control_dispatch)
        self.server.http.register(EVENTS_PATH, self._handle_event_wait)

    def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # -- locations ------------------------------------------------------------

    def _address(self):
        return self.stack.local_address()

    def location(self, service: str) -> str:
        self._ensure_service_endpoint(service)
        return make_location(self._address(), self.port, service)

    def control_location(self) -> str:
        return make_location(self._address(), self.port, CONTROL_SERVICE)

    def _endpoint(self, location: str) -> tuple[NodeAddress, int, str]:
        """:func:`parse_location` of ``location``, remembered per gateway."""
        endpoint = self._endpoints.get(location)
        if endpoint is None:
            endpoint = self._endpoints[location] = parse_location(location)
        return endpoint

    def _ensure_service_endpoint(self, service: str) -> None:
        """Lazily mount a SOAP endpoint for a newly exported service."""
        if self.server is None or self.vsg is None:
            raise GatewayError("SOAP gateway protocol not started")
        if service in self._exported:
            return
        self._exported.add(service)

        def dispatch(operation: str, args: list[Any]) -> SimFuture:
            call = ServiceCall(service=service, operation=operation, args=args)
            return self.vsg.dispatch_local(call)

        self.server.register_service(service, dispatch)

    # -- outbound calls -----------------------------------------------------------

    def call_remote(self, location: str, call: ServiceCall) -> SimFuture:
        address, port, service = self._endpoint(location)
        raw = self.client.call(
            address, service, call.operation, call.args, port=port, trace=call.trace
        )
        result: SimFuture = SimFuture()

        def translate(future: SimFuture) -> None:
            exc = future.exception()
            if exc is None:
                result.set_result(future.result())
            elif isinstance(exc, SoapFault):
                fault = ServiceFault(
                    code=exc.detail or exc.faultcode,
                    message=exc.faultstring,
                    island="",
                )
                result.set_exception(fault.to_exception())
            else:
                result.set_exception(exc)

        raw.add_done_callback(translate)
        return result

    def invalidate_location(self, location: str) -> None:
        """Evict pooled keep-alive connections to ``location``'s endpoint."""
        try:
            address, port, _service = self._endpoint(location)
        except Exception:
            return  # foreign-protocol location: nothing pooled for it here
        self.client.invalidate_peer(address, port)

    # -- events ------------------------------------------------------------

    def subscribe_remote(
        self, control_location: str, island: str, topics: list[str]
    ) -> SimFuture:
        """One control round trip: ``subscribe`` for a lone topic (resolves
        ``True``), ``subscribe_many`` with the whole list for two or more."""
        address, port, service = self._endpoint(control_location)
        if len(topics) == 1:
            operation, topic_arg = "subscribe", topics[0]
        else:
            operation, topic_arg = "subscribe_many", list(topics)
        return self.client.call(
            address,
            service,
            operation,
            [island, topic_arg, self.control_location()],
            port=port,
        )

    def poll_events(self, control_location: str, island: str) -> SimFuture:
        address, port, service = self._endpoint(control_location)
        return self.client.call(address, service, "fetch_events", [island], port=port)

    def ping_remote(self, control_location: str) -> SimFuture:
        address, port, service = self._endpoint(control_location)
        return self.client.call(address, service, "ping", [], port=port)

    def push_event(self, control_location: str, event: dict[str, Any]) -> None:
        raise GatewayError("SOAP/HTTP cannot push events (paper Section 4.2)")

    def open_event_channel(
        self,
        control_location: str,
        island: str,
        on_batch: Callable[[int, list[dict[str, Any]]], None],
        on_dead: Callable[[BaseException], None],
        initial_ack: int = 0,
    ) -> EventChannelClient | None:
        """Open a streamed push channel when this island runs the modern
        wire; a legacy island keeps polling, so its peers never see a
        single channel byte.  Every SOAP gateway serves the channel, and
        one that cannot (a dead route, a crashed peer) kills it, which
        falls the subscriber back to polling.
        """
        if not self.interchange.modern or self.vsg is None:
            return None
        try:
            address, port, _service = self._endpoint(control_location)
        except Exception:
            return None  # foreign-protocol location
        return EventChannelClient(
            self.stack,
            address,
            port,
            island,
            self.interchange,
            on_batch=on_batch,
            on_dead=on_dead,
            initial_ack=initial_ack,
            obs=self.vsg.obs,
            label=f"{self.vsg.island}.events",
        )

    def _handle_event_wait(self, request: HttpRequest) -> Any:
        """Publisher side of the channel: park the exchange with the
        event router and answer with one batched frame when it flushes.

        The route implies the modern wire, so waits carry no
        ``Accept-Encoding`` and the frame is gzipped past the floor here,
        like every other modern body."""
        if request.method != "POST":
            return HttpResponse(405, body=b"event channel accepts POST only")
        if self.vsg is None:
            return HttpResponse(500, body=b"gateway protocol not attached")
        try:
            island, ack, hold = envelope.parse_event_wait(request.body)
        except Exception as exc:
            return HttpResponse(400, body=str(exc).encode("utf-8"))
        if not math.isfinite(hold):
            # ``min`` keeps a NaN, and a NaN hold would park the wait
            # with no hold timer, unanswered until the next flush.
            return HttpResponse(400, body=b"event wait hold is not finite")
        hold = min(hold, EVENT_MAX_HOLD)
        held = self.vsg.events.handle_wait(island, ack, hold)
        response: SimFuture = SimFuture()

        def on_flush(future: SimFuture) -> None:
            exc = future.exception()
            if exc is not None:
                response.set_result(
                    HttpResponse(500, body=str(exc).encode("utf-8"))
                )
                return
            batch, events = future.result()
            headers = {"Content-Type": EVENTS_CONTENT_TYPE}
            body = compress_past_floor(envelope.build_event_frame(batch, events), headers)
            response.set_result(HttpResponse(200, headers=headers, body=body))

        held.add_done_callback(on_flush)
        return response

    # -- control service (inbound) ---------------------------------------------------

    def _control_dispatch(self, operation: str, args: list[Any]) -> Any:
        if self.vsg is None:
            raise GatewayError("gateway protocol not attached to a VSG")
        if operation == "subscribe":
            island, topic = str(args[0]), str(args[1])
            control_location = str(args[2]) if len(args) > 2 else ""
            return self.vsg.events.handle_subscribe(island, topic, control_location)
        if operation == "subscribe_many":
            island = str(args[0])
            topics = [str(topic) for topic in (args[1] or [])]
            control_location = str(args[2]) if len(args) > 2 else ""
            accepted = 0
            for topic in topics:
                if self.vsg.events.handle_subscribe(island, topic, control_location):
                    accepted += 1
            return accepted
        if operation == "fetch_events":
            return self.vsg.events.handle_fetch(str(args[0]))
        if operation == "ping":
            return self.vsg.island
        raise GatewayError(f"gateway control service has no operation {operation!r}")
