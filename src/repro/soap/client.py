"""SOAP RPC client."""

from __future__ import annotations

from typing import Any

from repro.errors import SoapError, SoapFault
from repro.net.addressing import NodeAddress
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.obs import NOOP_OBS, NULL_SPAN
from repro.obs.trace import TRACE_HEADER, TraceContext
from repro.soap import envelope
from repro.soap.http import (
    FEATURES_HEADER,
    LEGACY_INTERCHANGE,
    MODERN_TOKEN,
    HttpClient,
    HttpResponse,
    InterchangeConfig,
    compress_past_floor,
)
from repro.soap.server import (
    DEFAULT_SOAP_PORT,
    SOAP_PATH_PREFIX,
    TERSE_CONTENT_TYPE,
    VERBOSE_CONTENT_TYPE,
)


class SoapClient:
    """Calls named SOAP services hosted by a :class:`SoapServer`.

    On the modern wire the underlying :class:`HttpClient` pools keep-alive
    connections, and this layer negotiates: requests carry the ``modern``
    token and ``Accept-Encoding: gzip`` until the peer has echoed the
    token.  Once it has, requests to it travel as terse envelopes,
    gzip-compressed past the size floor, with nothing beyond their
    framing: no token, no ``SOAPAction`` (the body names the operation)
    and no ``Accept-Encoding`` (the server gzips terse answers itself).
    Exchanges with a peer stay verbose and keep sending the token until it
    echoes, so talking to a server that never echoes works unchanged.
    """

    def __init__(
        self, stack: TransportStack, config: InterchangeConfig | None = None
    ) -> None:
        self.stack = stack
        self.config = config or LEGACY_INTERCHANGE
        self.http = HttpClient(stack, self.config)
        self.calls_sent = 0
        self.terse_calls_sent = 0
        #: Destinations that echoed the ``modern`` token.
        self.modern_peers: set[tuple[NodeAddress, int]] = set()
        self.obs = NOOP_OBS
        self.label = ""

    def observe(self, obs: Any, label: str = "") -> "SoapClient":
        """Attach an observability bundle; ``label`` (normally the owning
        island) namespaces the metrics and tags the spans."""
        self.obs = obs
        self.label = label
        self.http.observe(obs, label)
        return self

    def invalidate_peer(self, dst: NodeAddress, port: int | None = None) -> None:
        """Evict any pooled keep-alive connections to ``dst``."""
        self.http.invalidate(dst, port)

    def call(
        self,
        dst: NodeAddress,
        service: str,
        operation: str,
        args: list[Any],
        port: int = DEFAULT_SOAP_PORT,
        trace: TraceContext | None = None,
    ) -> SimFuture:
        """Invoke ``service.operation(*args)`` at ``dst``.

        The returned future resolves to the decoded return value, or fails
        with :class:`SoapFault` (remote fault) / transport errors.

        ``trace`` joins the call to an existing trace; without it the
        ambient active span (if any) is used.  Traced calls carry the
        context to the peer in the ``X-Trace`` header — untraced calls add
        no header, leaving the wire byte-identical to the seed format.
        """
        self.calls_sent += 1
        tracer = self.obs.tracer
        span = NULL_SPAN
        if tracer.enabled:
            parent = trace if trace is not None else tracer.current()
            if parent is not None:
                span = tracer.start_span(
                    f"soap.call {service}.{operation}",
                    island=self.label,
                    kind="client",
                    parent=parent,
                )
        # Every span call below is guarded by ``recording``: with tracing
        # off, a call makes no call into repro.obs at all.
        recording = span.recording
        terse = (dst, port) in self.modern_peers
        if recording:
            encode = tracer.start_span("soap.encode", island=self.label, parent=span)
        if terse:
            self.terse_calls_sent += 1
            body = envelope.build_request_terse(operation, args)
            content_type = TERSE_CONTENT_TYPE
        else:
            body = envelope.build_request(operation, args)
            content_type = VERBOSE_CONTENT_TYPE + "; charset=utf-8"
        if recording:
            encode.set_attribute("wire_format", "terse" if terse else "verbose")
            encode.set_attribute("bytes", len(body))
            encode.finish()
        headers = {"Content-Type": content_type}
        if not terse:
            headers["SOAPAction"] = f'"{service}#{operation}"'
        if recording:
            headers[TRACE_HEADER] = span.context.to_header()
        if terse:
            body = compress_past_floor(body, headers)
        elif self.config.modern:
            headers[FEATURES_HEADER] = MODERN_TOKEN
            headers["Accept-Encoding"] = "gzip"
        path = SOAP_PATH_PREFIX + service
        if recording:
            with tracer.activate(span):
                response_future = self.http.post(dst, port, path, body, headers=headers)
        else:
            response_future = self.http.post(dst, port, path, body, headers=headers)
        result: SimFuture = SimFuture()

        def on_response(future: SimFuture) -> None:
            exc = future.exception()
            if exc is None:
                response: HttpResponse = future.result()
                if response.header(FEATURES_HEADER) == MODERN_TOKEN:
                    self.modern_peers.add((dst, port))
                if recording:
                    decode = tracer.start_span("soap.decode", island=self.label, parent=span)
                try:
                    message = envelope.parse_envelope(response.body)
                except SoapError as parse_exc:
                    if recording:
                        decode.finish(parse_exc)
                    exc = parse_exc
                else:
                    if recording:
                        decode.set_attribute("wire_format", message.wire_format)
                        decode.finish()
                    if message.kind == "fault":
                        exc = SoapFault(message.faultcode, message.faultstring, message.detail)
                    elif message.kind != "response":
                        exc = SoapError(f"expected response envelope, got {message.kind}")
            if recording:
                span.finish(exc)
            if exc is None:
                result.set_result(message.value)
            else:
                result.set_exception(exc)

        response_future.add_done_callback(on_response)
        return result
