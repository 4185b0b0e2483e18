"""The traced run: per-layer counts and self time, measured from outside.

:class:`LayerTracer` wraps the entry points of each layer of ``repro``
with timing spans, from this file only; the program itself carries no
instrumentation.  It also wraps every callable the program hands to a
registration point (``Simulator.at``, ``SimFuture.add_done_callback``,
connection receivers, frame and HTTP handlers, SOAP dispatchers), so each
scheduled callback and continuation runs inside a span of the layer whose
module defined it.  A layer's self time is the sum of its spans' durations
minus the time their wrapped children cover; the kernel's self time is
whatever ``Simulator.run`` has left after all of them.

Install the tracer before the world is built: several layers bind their
handlers at construction time.  Spans stay in memory; the first
``SAMPLE_SPANS`` of a run are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Any, Callable

from repro.core import values
from repro.core.pcm import ProtocolConversionManager
from repro.core.resilience import ResilientExecutor
from repro.core.vsg import EventRouter, VirtualServiceGateway
from repro.core.vsr import VsrClient
from repro.havi import codec as havi_codec
from repro.havi.messaging import MessagingSystem
from repro.jini import marshalling
from repro.jini.rmi import RmiRuntime
from repro.net.node import Node
from repro.net.reactor import Reactor
from repro.net.segment import Segment
from repro.net.simkernel import Event, SimFuture, Simulator
from repro.net.transport import Connection, TransportStack
from repro.soap import envelope, http
from repro.soap.server import SoapServer
from repro.soap.wsdl import WsdlDocument
from repro.upnp.control import UpnpControlPoint
from repro.x10.cm11a import Cm11aDriver
from repro.x10.powerline import PowerlineTransceiver

#: Module prefix -> layer, first match wins.
MODULE_LAYERS = (
    ("repro.net.simkernel", "simkernel"),
    ("repro.net.transport", "transport"),
    ("repro.net.reactor", "reactor"),
    ("repro.net", "segment"),
    ("repro.soap.http", "http"),
    ("repro.soap.envelope", "envelope"),
    ("repro.soap.xmlutil", "envelope"),
    ("repro.soap.wsdl", "wsdl"),
    ("repro.soap", "soap"),
    ("repro.core.gateway_soap", "soap"),
    ("repro.core.vsr", "vsr"),
    ("repro.core.shard", "vsr"),
    ("repro.core.resilience", "resilience"),
    ("repro.core.values", "values"),
    ("repro.core.pcm", "pcm"),
    ("repro.core.proxygen", "pcm"),
    ("repro.pcms", "pcm"),
    ("repro.core", "vsg"),
    ("repro.jini", "jini"),
    ("repro.havi", "havi"),
    ("repro.x10", "x10"),
    ("repro.upnp", "upnp"),
    ("repro.mail", "mail"),
    ("repro.", "devices"),
)
#: Layers in report order; "bench" is this benchmark's own callbacks.
LAYERS = (
    "simkernel", "segment", "transport", "reactor", "http", "envelope", "soap",
    "wsdl", "vsg", "router", "vsr", "directory", "resilience", "pcm", "values", "jini",
    "havi", "x10", "upnp", "mail", "devices", "bench", "other",
)
#: Modules of this benchmark (their callbacks are the "bench" layer).
BENCH_MODULES = {"modern_rpc", "legacy_home", "directory_churn", "common", "run", "__main__"}
#: Raw spans kept for the trace file.
SAMPLE_SPANS = 20000

#: Public counters read from every live instance, as deltas over the window.
INSTANCE_COUNTERS = {
    Segment: ("frames_sent", "bytes_sent"),
    Reactor: ("cycles", "flushes"),
    http.HttpServer: ("requests_served", "keepalive_reuses"),
    VsrClient: ("cache_hits", "negative_hits", "coalesced_lookups", "remote_lookups"),
    EventRouter: ("events_delivered", "polls_performed"),
    ResilientExecutor: ("retries",),
}


def layer_of(fn: Any) -> str:
    """The layer whose module defined ``fn``."""
    target = getattr(fn, "fn", fn)  # FullEventCallback and similar wrappers
    target = getattr(target, "func", target)  # functools.partial
    target = getattr(target, "__func__", target)  # bound methods
    module = getattr(target, "__module__", None) or ""
    if not module.startswith("repro."):
        return "bench" if module in BENCH_MODULES else "other"
    qualname = getattr(target, "__qualname__", "")
    if module == "repro.core.vsg" and qualname.startswith("EventRouter"):
        return "router"
    if module == "repro.core.vsr" and qualname.startswith(("VsrDirectory", "UddiSoapService")):
        return "directory"
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class LayerTracer:
    """Spans, counts and instance counters for one traced window."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        self._stack: list[list[int]] = [[0, -1]]
        self._next_id = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.instances: dict[type, list[Any]] = defaultdict(list)
        self._baseline: dict[tuple[type, str], int] = {}

    # -- spans -----------------------------------------------------------

    def span(self, fn: Callable, layer: str, name: str | None = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``; ``name`` also counts the
        calls and sums their inclusive time."""
        stack, self_ns, incl_ns, counts, spans = (
            self._stack, self.self_ns, self.incl_ns, self.counts, self.spans
        )
        label = name or layer
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if name is not None:
                counts[name] += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0, span_id]
            parent = stack[-1][1]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if name is not None:
                    incl_ns[name] += elapsed
                if len(spans) < SAMPLE_SPANS:
                    spans.append((label, span_id, parent, start, elapsed))

        return traced

    def callback(self, fn: Callable) -> Callable:
        """Wrap a callable handed to the program, in its own layer's span."""
        return self.span(fn, layer_of(fn))

    def _replacement(self, original: Any, layer: str, name: str | None) -> Callable:
        """A span standing in for ``original`` on its class or module; it
        keeps the original's name and module so ``layer_of`` still sees
        where the code lives when the program hands it on as a callback."""
        return functools.update_wrapper(self.span(original, layer, name), original)

    # -- installation ----------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, layer: str, name: str | None = None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            self._set(cls, attr, staticmethod(self._replacement(original.__func__, layer, name)))
        else:
            self._set(cls, attr, self._replacement(original, layer, name))

    def _function(self, module: Any, attr: str, layer: str, name: str) -> None:
        """Wrap a module function everywhere it is bound by name (modules
        that did ``from ... import`` hold their own reference)."""
        original = getattr(module, attr)
        traced = self._replacement(original, layer, name)
        for loaded in list(sys.modules.values()):
            if loaded is not None and vars(loaded).get(attr) is original:
                self._set(loaded, attr, traced)

    def _wrap_arg(self, cls: type, attr: str, index: int) -> None:
        """Wrap positional argument ``index`` (after self) of a
        registration method in the callee's layer span."""
        original = cls.__dict__[attr]
        callback = self.callback

        @functools.wraps(original)
        def register(this: Any, *args: Any, **kwargs: Any) -> Any:
            args = list(args)
            args[index] = callback(args[index])
            return original(this, *args, **kwargs)

        self._set(cls, attr, register)

    def _count(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        self._set(cls, attr, counted)

    def _register_instances(self, cls: type) -> None:
        original = cls.__dict__["__init__"]
        instances = self.instances

        @functools.wraps(original)
        def init(this: Any, *args: Any, **kwargs: Any) -> None:
            original(this, *args, **kwargs)
            instances[cls].append(this)

        self._set(cls, "__init__", init)

    def install(self) -> "LayerTracer":
        """Wrap every layer.  Call before building the world."""
        # simkernel: the run loop is the root span; scheduling is counted
        # per layer of the callback it schedules.
        self._method(Simulator, "run", "simkernel")
        original_at = Simulator.__dict__["at"]
        counts, span = self.counts, self.span

        @functools.wraps(original_at)
        def at(this: Simulator, time: float, fn: Callable, *args: Any) -> Event:
            layer = layer_of(fn)
            counts["simkernel.at"] += 1
            counts[f"timers.{layer}"] += 1
            return original_at(this, time, span(fn, layer), *args)

        self._set(Simulator, "at", at)
        self._wrap_arg(Simulator, "post", 0)
        self._count(Simulator, "post", "simkernel.post")
        self._count(Event, "cancel", "simkernel.cancel")
        self._wrap_arg(SimFuture, "add_done_callback", 0)
        # segment / node
        self._method(Segment, "transmit", "segment")
        self._wrap_arg(Node, "register_protocol", 1)
        # transport and reactor
        self._method(TransportStack, "connect", "transport", "transport.connect")
        self._method(Connection, "send", "transport")
        self._wrap_arg(Connection, "set_receiver", 0)
        original_take = Connection.__dict__["_take_tx"]

        @functools.wraps(original_take)
        def take_tx(this: Connection) -> list:
            frames = original_take(this)
            counts["reactor.frames"] += len(frames)
            return frames

        self._set(Connection, "_take_tx", take_tx)
        # HTTP
        self._method(http.HttpClient, "request", "http", "http.exchange")
        self._function(http, "gzip_bytes", "http", "http.gzip")
        self._function(http, "gunzip_bytes", "http", "http.gzip")
        self._method(http._MessageAssembler, "feed", "http")
        self._method(http.HttpRequest, "to_bytes", "http")
        self._method(http.HttpResponse, "to_bytes", "http")
        self._wrap_arg(http.HttpServer, "register", 1)
        self._wrap_arg(http.HttpServer, "register_prefix", 1)
        # SOAP envelope codec and WSDL
        for attr in ("build_request", "build_response", "build_fault", "build_request_terse",
                     "build_response_terse", "build_fault_terse", "build_event_wait",
                     "build_event_frame"):
            self._function(envelope, attr, "envelope", "envelope.encode")
        for attr in ("parse_envelope", "parse_event_wait", "parse_event_frame"):
            self._function(envelope, attr, "envelope", "envelope.decode")
        self._method(WsdlDocument, "from_xml", "wsdl", "wsdl.parse")
        self._method(WsdlDocument, "to_xml", "wsdl", "wsdl.serialise")
        self._wrap_arg(SoapServer, "register_service", 1)
        original_handle = SoapServer.__dict__["_handle"]
        directory_request = self.span(original_handle, "soap", "directory.request")
        server_request = self.span(original_handle, "soap")

        @functools.wraps(original_handle)
        def handle(this: SoapServer, request: Any) -> Any:
            if "UDDI" in this._services:
                return directory_request(this, request)
            return server_request(this, request)

        self._set(SoapServer, "_handle", handle)
        # VSG, event router, VSR client
        self._method(VirtualServiceGateway, "invoke", "vsg", "vsg.invoke")
        self._method(VirtualServiceGateway, "dispatch_local", "vsg")
        self._method(EventRouter, "publish", "router", "router.publish")
        self._method(EventRouter, "handle_push", "router", "router.push")
        self._method(EventRouter, "_on_channel_batch", "router", "router.batch")
        for attr in ("find_by_name", "find", "publish", "withdraw", "list_gateways"):
            self._method(VsrClient, attr, "vsr", f"vsr.{attr}")
        # PCMs (a conversion is one call through a Client or Server Proxy)
        original_export = VirtualServiceGateway.__dict__["export_service"]

        @functools.wraps(original_export)
        def export_service(this: Any, name: str, interface: Any, handler: Callable, *rest: Any) -> Any:
            layer = layer_of(handler)
            handler = span(handler, layer, "pcm.convert" if layer == "pcm" else None)
            return original_export(this, name, interface, handler, *rest)

        self._set(VirtualServiceGateway, "export_service", export_service)
        original_invoker = ProtocolConversionManager.__dict__["remote_invoker"]

        @functools.wraps(original_invoker)
        def remote_invoker(this: Any, service: str) -> Callable:
            return span(original_invoker(this, service), "pcm", "pcm.convert")

        self._set(ProtocolConversionManager, "remote_invoker", remote_invoker)
        for attr in ("check_args", "check_result", "check_value"):
            self._function(values, attr, "values", "values.check")
        # middleware codecs
        self._method(RmiRuntime, "call", "jini", "jini.call")
        self._function(marshalling, "marshal", "jini", "jini.codec")
        self._function(marshalling, "unmarshal", "jini", "jini.codec")
        self._method(MessagingSystem, "send_request", "havi", "havi.msg")
        self._method(MessagingSystem, "send_event", "havi", "havi.msg")
        self._function(havi_codec, "encode", "havi", "havi.codec")
        self._function(havi_codec, "decode", "havi", "havi.codec")
        self._method(PowerlineTransceiver, "transmit_command", "x10", "x10.cmd")
        self._method(Cm11aDriver, "send_command", "x10", "x10.cmd")
        self._method(Cm11aDriver, "send_signal", "x10", "x10.cmd")
        self._method(UpnpControlPoint, "invoke", "upnp", "upnp.action")
        for cls in INSTANCE_COUNTERS:
            self._register_instances(cls)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- windows -----------------------------------------------------------

    def _instance_totals(self) -> dict[tuple[type, str], int]:
        return {
            (cls, attr): sum(getattr(instance, attr) for instance in self.instances[cls])
            for cls, attrs in INSTANCE_COUNTERS.items()
            for attr in attrs
        }

    def new_world(self) -> None:
        """Forget the previous world's instances (call before building)."""
        self.instances.clear()

    def begin(self) -> None:
        """Start a measured window: spans so far (set-up) do not count."""
        self._baseline = self._instance_totals()
        self.self_ns.clear()
        self.incl_ns.clear()
        self.counts.clear()
        self.spans.clear()
        self._stack[0][0] = 0

    def end(self) -> dict[str, Any]:
        """Close the window; returns its raw totals for :func:`merge`."""
        totals = self._instance_totals()
        return {
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "counts": dict(self.counts),
            "instances": {
                f"{cls.__name__}.{attr}": totals[(cls, attr)] - self._baseline.get((cls, attr), 0)
                for cls, attr in totals
            },
        }

    def dump_spans(self, path: str) -> None:
        """Write the sampled spans of the last window as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for label, span_id, parent, start, elapsed in self.spans:
                handle.write(json.dumps({
                    "name": label, "id": span_id, "parent": parent,
                    "start_ns": start, "duration_ns": elapsed,
                }) + "\n")


def merge(windows: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum the raw totals of several windows."""
    merged: dict[str, Any] = {key: Counter() for key in ("self_ns", "incl_ns", "counts", "instances")}
    for window in windows:
        for key in merged:
            merged[key].update(window[key])
    return merged


def layer_metrics(raw: dict[str, Any], ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit), every one normalised per
    completed op or per unit of the layer's own work."""
    self_us = {layer: raw["self_ns"].get(layer, 0) / 1000.0 for layer in LAYERS}
    incl_us = lambda name: raw["incl_ns"].get(name, 0) / 1000.0  # noqa: E731
    count = lambda name: raw["counts"].get(name, 0)  # noqa: E731
    inst = lambda name: raw["instances"].get(name, 0)  # noqa: E731

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lookups = count("vsr.find_by_name")
    frames = inst("Segment.frames_sent")
    metrics = {
        "simkernel.events_per_op": (ratio(count("simkernel.at"), ops), "count"),
        "simkernel.cancelled_ratio": (ratio(count("simkernel.cancel"), count("simkernel.at")), "ratio"),
        "simkernel.microtasks_per_op": (ratio(count("simkernel.post"), ops), "count"),
        "simkernel.self_us_per_op": (ratio(self_us["simkernel"], ops), "us"),
        "segment.frames_per_op": (ratio(frames, ops), "count"),
        "segment.bytes_per_op": (ratio(inst("Segment.bytes_sent"), ops), "B"),
        "segment.us_per_frame": (ratio(self_us["segment"], frames), "us"),
        "transport.connects_per_op": (ratio(count("transport.connect"), ops), "count"),
        "transport.us_per_op": (ratio(self_us["transport"], ops), "us"),
        "reactor.frames_per_flush": (ratio(count("reactor.frames"), inst("Reactor.flushes")), "count"),
        "reactor.cycles_per_op": (ratio(inst("Reactor.cycles"), ops), "count"),
        "http.exchanges_per_op": (ratio(count("http.exchange"), ops), "count"),
        "http.conn_reuse_ratio": (
            ratio(inst("HttpServer.keepalive_reuses"), inst("HttpServer.requests_served")), "ratio"),
        "http.us_per_exchange": (ratio(self_us["http"], count("http.exchange")), "us"),
        "http.gzip_us_per_op": (ratio(incl_us("http.gzip"), ops), "us"),
        "envelope.codec_calls_per_op": (
            ratio(count("envelope.encode") + count("envelope.decode"), ops), "count"),
        "envelope.us_per_encode": (ratio(incl_us("envelope.encode"), count("envelope.encode")), "us"),
        "envelope.us_per_decode": (ratio(incl_us("envelope.decode"), count("envelope.decode")), "us"),
        "wsdl.parses_per_op": (ratio(count("wsdl.parse"), ops), "count"),
        "wsdl.us_per_parse": (ratio(incl_us("wsdl.parse"), count("wsdl.parse")), "us"),
        "vsg.us_per_invoke": (ratio(self_us["vsg"], count("vsg.invoke")), "us"),
        "vsg.router_us_per_event": (ratio(self_us["router"], count("router.publish")), "us"),
        "vsg.events_per_delivery": (ratio(
            inst("EventRouter.events_delivered"),
            inst("EventRouter.polls_performed") + count("router.batch") + count("router.push"),
        ), "count"),
        "vsr.cache_hit_ratio": (ratio(inst("VsrClient.cache_hits"), lookups), "ratio"),
        "vsr.negative_hit_ratio": (ratio(inst("VsrClient.negative_hits"), lookups), "ratio"),
        "vsr.coalesced_ratio": (ratio(inst("VsrClient.coalesced_lookups"), lookups), "ratio"),
        "vsr.remote_lookups_per_op": (ratio(inst("VsrClient.remote_lookups"), ops), "count"),
        "vsr.client_us_per_op": (ratio(self_us["vsr"], ops), "us"),
        "vsr.directory_us_per_op": (ratio(incl_us("directory.request"), ops), "us"),
        "pcm.conversions_per_op": (ratio(count("pcm.convert"), ops), "count"),
        "pcm.us_per_conversion": (ratio(self_us["pcm"], count("pcm.convert")), "us"),
        "values.us_per_op": (ratio(self_us["values"], ops), "us"),
        "jini.us_per_call": (ratio(self_us["jini"], count("jini.call")), "us"),
        "havi.us_per_msg": (ratio(self_us["havi"], count("havi.msg")), "us"),
        "x10.us_per_cmd": (ratio(self_us["x10"], count("x10.cmd")), "us"),
        "upnp.us_per_action": (ratio(self_us["upnp"], count("upnp.action")), "us"),
        "resilience.retries_per_op": (ratio(inst("ResilientExecutor.retries"), ops), "count"),
        "resilience.deadline_timers_per_op": (ratio(count("timers.resilience"), ops), "count"),
    }
    return metrics


def self_time_table(raw: dict[str, Any], ops: int) -> list[tuple[str, float, float]]:
    """(layer, self us per op, share of traced time) for every layer."""
    total = sum(raw["self_ns"].values()) or 1
    return [
        (layer, raw["self_ns"].get(layer, 0) / 1000.0 / max(1, ops), raw["self_ns"].get(layer, 0) / total)
        for layer in LAYERS
    ]
