"""SOAP RPC server endpoint.

Services register a dispatcher; the endpoint URL space is
``/soap/<service-name>``.  Application exceptions become SOAP Faults with
``faultcode SOAP-ENV:Server``; malformed envelopes yield
``SOAP-ENV:Client`` faults, mirroring Apache SOAP's behaviour.

The server answers in the encoding the request arrived in: a terse-envelope
request (negotiated modern interchange wire) gets a terse response, gzipped
past the size floor like every other modern body, anything else gets the
verbose 2002 format — so legacy clients never see a byte they would not have
seen from the seed implementation.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ReproError, SoapError
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.obs import NOOP_OBS, NULL_SPAN
from repro.obs.trace import TRACE_HEADER, TraceContext
from repro.soap import envelope
from repro.soap.http import HttpRequest, HttpResponse, HttpServer, compress_past_floor

#: A service dispatcher: (operation, args) -> return value (may raise).
Dispatcher = Callable[[str, list[Any]], Any]

SOAP_PATH_PREFIX = "/soap/"
DEFAULT_SOAP_PORT = 8080

#: Content-Type announcing a terse envelope body.
TERSE_CONTENT_TYPE = "application/x-soap-terse"
VERBOSE_CONTENT_TYPE = "text/xml"


class SoapServer:
    """Hosts any number of named SOAP services on one HTTP port."""

    def __init__(self, stack: TransportStack, port: int = DEFAULT_SOAP_PORT) -> None:
        self.stack = stack
        self.port = port
        self.http = HttpServer(stack, port)
        self.http.register_prefix(SOAP_PATH_PREFIX, self._handle)
        self._services: dict[str, Dispatcher] = {}
        self.calls_handled = 0
        self.faults_returned = 0
        self.terse_calls_handled = 0
        self.obs = NOOP_OBS
        self.island = ""

    def observe(self, obs: Any, island: str = "") -> "SoapServer":
        """Attach an observability bundle; ``island`` tags the server-side
        spans with where the call executed."""
        self.obs = obs
        self.island = island
        return self

    def register_service(self, name: str, dispatcher: Dispatcher) -> None:
        if name in self._services:
            raise SoapError(f"SOAP service {name!r} already registered")
        self._services[name] = dispatcher

    @property
    def service_names(self) -> list[str]:
        return sorted(self._services)

    def close(self) -> None:
        self.http.close()

    # -- internals ------------------------------------------------------------

    def _handle(self, request: HttpRequest) -> HttpResponse:
        if request.method != "POST":
            return HttpResponse(405, body=b"SOAP endpoints accept POST only")
        service_name = request.path[len(SOAP_PATH_PREFIX) :]
        tracer = self.obs.tracer
        span = NULL_SPAN
        if tracer.enabled:
            # Re-attach the caller's trace from the X-Trace header: this is
            # where a bridged call's trace crosses onto the serving island.
            # Requests without the header (polls, heartbeats, legacy
            # clients) stay untraced.
            context = TraceContext.from_header(request.header(TRACE_HEADER))
            if context is not None:
                span = tracer.start_span(
                    f"soap.serve {service_name}",
                    island=self.island,
                    kind="server",
                    parent=context,
                )
        # Every span call below is guarded by ``recording``: an untraced
        # request makes no call into repro.obs at all.
        recording = span.recording
        dispatcher = self._services.get(service_name)
        if dispatcher is None:
            if recording:
                span.finish()
            return self._fault_response(
                404, "SOAP-ENV:Client", f"no such service {service_name!r}"
            )
        if recording:
            decode = tracer.start_span("soap.decode", island=self.island, parent=span)
        try:
            message = envelope.parse_envelope(request.body)
        except SoapError as exc:
            if recording:
                decode.finish(exc)
                span.finish(exc)
            return self._fault_response(400, "SOAP-ENV:Client", str(exc))
        if recording:
            decode.set_attribute("wire_format", message.wire_format)
            decode.finish()
        terse = message.wire_format == "terse"
        if terse:
            self.terse_calls_handled += 1
        if message.kind != "request":
            if recording:
                span.finish()
            return self._fault_response(
                400,
                "SOAP-ENV:Client",
                f"expected request envelope, got {message.kind}",
                terse=terse,
            )
        try:
            if recording:
                # The server span is ambient while the dispatcher runs, so
                # the gateway's dispatch span (and anything below it)
                # nests here.
                with tracer.activate(span):
                    result = dispatcher(message.operation, message.args)
            else:
                result = dispatcher(message.operation, message.args)
        except ReproError as exc:
            if recording:
                span.finish(exc)
            return self._fault_response(
                500, "SOAP-ENV:Server", str(exc), detail=type(exc).__name__, terse=terse
            )
        except Exception as exc:  # dispatcher bug: still answer with a Fault
            if recording:
                span.finish(exc)
            return self._fault_response(
                500,
                "SOAP-ENV:Server",
                f"internal error: {exc}",
                detail=type(exc).__name__,
                terse=terse,
            )
        if isinstance(result, SimFuture):
            # Asynchronous dispatcher (e.g. a gateway bridging to another
            # island): resolve to the HTTP response when the value arrives.
            pending: SimFuture = SimFuture()

            def on_done(future: SimFuture) -> None:
                exc = future.exception()
                if recording:
                    span.finish(exc)
                if exc is not None:
                    pending.set_result(
                        self._fault_response(
                            500,
                            "SOAP-ENV:Server",
                            str(exc),
                            detail=type(exc).__name__,
                            terse=terse,
                        )
                    )
                    return
                try:
                    response = self._ok_response(message.operation, future.result(), terse)
                except ReproError as encode_exc:
                    pending.set_result(
                        self._fault_response(
                            500, "SOAP-ENV:Server", str(encode_exc), terse=terse
                        )
                    )
                    return
                self.calls_handled += 1
                pending.set_result(response)

            result.add_done_callback(on_done)
            return pending
        self.calls_handled += 1
        if recording:
            span.finish()
        return self._ok_response(message.operation, result, terse)

    def _ok_response(self, operation: str, result, terse: bool = False) -> HttpResponse:
        if terse:
            return _terse_response(200, envelope.build_response_terse(operation, result))
        body = envelope.build_response(operation, result)
        return HttpResponse(200, headers={"Content-Type": VERBOSE_CONTENT_TYPE}, body=body)

    def _fault_response(
        self,
        status: int,
        faultcode: str,
        faultstring: str,
        detail: str = "",
        terse: bool = False,
    ) -> HttpResponse:
        self.faults_returned += 1
        if terse:
            return _terse_response(
                status, envelope.build_fault_terse(faultcode, faultstring, detail)
            )
        body = envelope.build_fault(faultcode, faultstring, detail)
        return HttpResponse(status, headers={"Content-Type": VERBOSE_CONTENT_TYPE}, body=body)


def _terse_response(status: int, body: bytes) -> HttpResponse:
    """A terse answer goes only to a client that negotiated the modern
    wire, and every HTTP client gunzips, so it follows the modern gzip
    rule by itself; ``Accept-Encoding`` governs verbose answers only."""
    headers = {"Content-Type": TERSE_CONTENT_TYPE}
    body = compress_past_floor(body, headers)
    return HttpResponse(status, headers=headers, body=body)
