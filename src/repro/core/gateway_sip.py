"""SIP binding of the VSG interchange protocol.

The paper (Section 5) weighs SIP against HTTP for exactly this job: "SIP
supports asynchronous calls and call forwarding which is not supported by
HTTP ... SIP may be more suitable than other protocols such as HTTP for
service integration.  But the problem is few popularization of SIP."

This binding keeps the *payload* identical to the SOAP binding (SOAP
envelopes inside SIP MESSAGE bodies) so experiments C3/A2 isolate the
transport difference: datagram transactions instead of TCP+HTTP, and true
push eventing (NOTIFY) instead of polling.
"""

from __future__ import annotations

from typing import Any

from repro.errors import GatewayError, SoapError
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.soap import envelope
from repro.sip.messages import SipResponse, make_uri, parse_uri
from repro.sip.transaction import DEFAULT_SIP_PORT
from repro.sip.ua import SipUserAgent
from repro.core.calls import ServiceCall, ServiceFault
from repro.core.vsg import GatewayProtocol, VirtualServiceGateway

CONTROL_USER = "_gateway"


class SipGatewayProtocol(GatewayProtocol):
    """SIP/UDP gateway binding with native event push."""

    name = "sip"
    supports_push = True

    def __init__(self, stack: TransportStack, port: int = DEFAULT_SIP_PORT) -> None:
        self.stack = stack
        self.port = port
        self.ua: SipUserAgent | None = None
        self.vsg: VirtualServiceGateway | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self, vsg: VirtualServiceGateway) -> None:
        self.vsg = vsg
        self.ua = SipUserAgent(self.stack, self.port)
        self.ua.on_message(self._on_message)
        self.ua.on_event("vsg", self._on_pushed_event)

    def stop(self) -> None:
        if self.ua is not None:
            self.ua.close()
            self.ua = None

    # -- locations ------------------------------------------------------------

    def location(self, service: str) -> str:
        return make_uri(service, self.stack.local_address(), self.port)

    def control_location(self) -> str:
        return make_uri(CONTROL_USER, self.stack.local_address(), self.port)

    # -- calls ------------------------------------------------------------

    def call_remote(self, location: str, call: ServiceCall) -> SimFuture:
        if self.ua is None:
            raise GatewayError("SIP gateway protocol not started")
        body = envelope.build_request(call.operation, call.args)
        raw = self.ua.send_message(location, body, headers={"X-Service": call.service})

        def translate(response: SipResponse) -> Any:
            if response.status == 408:
                raise GatewayError(f"SIP timeout calling {location}")
            message = envelope.parse_envelope(response.body)
            if message.kind == "fault":
                raise ServiceFault(message.faultcode, message.faultstring).to_exception()
            return message.value

        return raw.then(translate)

    def _on_message(self, user: str, request) -> SimFuture:
        """Inbound MESSAGE: a neutral call for a locally exported service
        (the URI user part names the service)."""
        pending: SimFuture = SimFuture()
        try:
            parsed = envelope.parse_envelope(request.body)
        except SoapError as exc:
            pending.set_result((400, envelope.build_fault("SOAP-ENV:Client", str(exc))))
            return pending
        if user == CONTROL_USER:
            pending.set_result(self._control(parsed))
            return pending
        call = ServiceCall(service=user, operation=parsed.operation, args=parsed.args)

        def on_done(future: SimFuture) -> None:
            exc = future.exception()
            if exc is not None:
                body = envelope.build_fault("SOAP-ENV:Server", str(exc))
                pending.set_result((500, body))
            else:
                pending.set_result(
                    (200, envelope.build_response(parsed.operation, future.result()))
                )

        self.vsg.dispatch_local(call).add_done_callback(on_done)
        return pending

    def _control(self, parsed) -> tuple[int, bytes]:
        """Gateway-level control operations carried as MESSAGEs."""
        if parsed.operation == "subscribe" and len(parsed.args) >= 3:
            island, topic, contact = (str(a) for a in parsed.args[:3])
            self.vsg.events.handle_subscribe(island, topic, contact)
            return (200, envelope.build_response("subscribe", True))
        if parsed.operation == "ping":
            return (200, envelope.build_response("ping", self.vsg.island))
        return (
            404,
            envelope.build_fault(
                "SOAP-ENV:Client", f"unknown control operation {parsed.operation!r}"
            ),
        )

    # -- events: native push ------------------------------------------------------

    def subscribe_remote(
        self, control_location: str, island: str, topics: list[str]
    ) -> SimFuture:
        """SUBSCRIBE at the remote gateway: one MESSAGE per topic to the
        control user (subscription bookkeeping), and NOTIFYs come back to
        our UA.  Resolves to the number of topics accepted; fails with the
        last rejection when none was."""
        if self.ua is None:
            raise GatewayError("SIP gateway protocol not started")
        result: SimFuture = SimFuture()
        pending = len(topics)
        accepted = 0

        def check(future: SimFuture) -> None:
            nonlocal pending, accepted
            pending -= 1
            exc = future.exception()
            if exc is None and not future.result().ok:
                exc = GatewayError(f"subscribe rejected: {future.result().status}")
            if exc is None:
                accepted += 1
            if pending:
                return
            if accepted:
                result.set_result(accepted)
            else:
                result.set_exception(exc)

        for topic in topics:
            body = envelope.build_request(
                "subscribe", [island, topic, self.control_location()]
            )
            self.ua.send_message(control_location, body).add_done_callback(check)
        return result

    def ping_remote(self, control_location: str) -> SimFuture:
        if self.ua is None:
            raise GatewayError("SIP gateway protocol not started")

        def check(response: SipResponse) -> Any:
            if not response.ok:
                raise GatewayError(f"ping rejected: {response.status}")
            return envelope.parse_envelope(response.body).value

        return self.ua.send_message(
            control_location, envelope.build_request("ping", [])
        ).then(check)

    def push_event(self, control_location: str, event: dict[str, Any]) -> None:
        if self.ua is None:
            raise GatewayError("SIP gateway protocol not started")
        _, address, port = parse_uri(control_location)
        body = envelope.build_request("_event", [event])
        self.ua._send_notify(address, port, "vsg", body)

    def poll_events(self, control_location: str, island: str) -> SimFuture:
        raise GatewayError("the SIP binding pushes events; polling is never used")

    def _on_pushed_event(self, event_name: str, body: bytes, src) -> None:
        if self.vsg is None:
            return
        try:
            parsed = envelope.parse_envelope(body)
        except SoapError:
            return
        if parsed.kind == "request" and parsed.operation == "_event" and parsed.args:
            event = parsed.args[0]
            if isinstance(event, dict):
                self.vsg.events.handle_push(event)
