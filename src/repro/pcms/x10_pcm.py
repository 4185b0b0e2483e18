"""The X10 PCM.

X10 has no service discovery — the installer knows which module sits at
which house/unit address — so the PCM takes an explicit *device map*
(exactly what the 2002 prototype would have configured by hand):

- **Client Proxy (export)** — each mapped device becomes a neutral service
  (``turn_on`` / ``turn_off``, plus ``dim`` / ``brighten`` for lamps); the
  handler drives the CM11A through :class:`repro.x10.controller.X10Controller`.
- **Server Proxy (import)** — X10 cannot *host* a remote service the way
  Jini or HAVi can, but it can *trigger* one: remote services are bound to
  spare X10 addresses (:meth:`bind_button`), so a plain X10 handset button
  invokes, say, the Jini Laserdisc — the paper's Figure 5 application.

Every powerline event the CM11A hears is also published on the framework
event bus as topic ``x10.<FUNCTION>`` (payload: address, dims), which the
event-based multimedia application consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConversionError
from repro.net.simkernel import SimFuture
from repro.soap.wsdl import WsdlDocument
from repro.core.interface import ServiceInterface, simple_interface
from repro.core.pcm import ProtocolConversionManager
from repro.core.vsg import VirtualServiceGateway
from repro.x10.codes import X10Address, X10Function
from repro.x10.controller import X10Controller


@dataclass(frozen=True)
class X10DeviceInfo:
    """One entry of the installer-provided device map."""

    address: X10Address
    name: str
    kind: str = "appliance"  # 'lamp' | 'appliance' | 'sensor'
    room: str = ""

    def service_name(self) -> str:
        return f"X10_{self.address}_{self.name}".replace(" ", "_")


@dataclass
class ButtonBinding:
    """Handset button -> remote neutral call."""

    service: str
    operation: str
    args: list[Any] = field(default_factory=list)
    invocations: int = 0


class X10Pcm(ProtocolConversionManager):
    """PCM bridging one X10 powerline island."""

    middleware_name = "x10"

    def __init__(
        self,
        vsg: VirtualServiceGateway,
        controller: X10Controller,
        device_map: list[X10DeviceInfo],
    ) -> None:
        super().__init__(vsg)
        self.controller = controller
        self.device_map = list(device_map)
        self._bindings: dict[tuple[X10Address, X10Function], ButtonBinding] = {}
        self.events_bridged = 0
        controller.on_event(self._on_x10_event)

    # -- Client Proxy: X10 -> neutral ----------------------------------------------

    def _discover_local_services(self) -> SimFuture:
        discovered = []
        houses = sorted({info.address.house for info in self.device_map})
        for house in houses:
            discovered.append(self._export_house(house))
        for info in self.device_map:
            if info.kind == "sensor":
                continue  # sensors only emit events; nothing to invoke
            discovered.append(self._export_for(info))
        return SimFuture.completed(discovered)

    def _export_house(self, house: str):
        """House-wide X10 functions as one service per house code."""
        interface = simple_interface(
            f"X10_house_{house}",
            {"all_units_off": ("->boolean",), "all_lights_on": ("->boolean",),
             "all_lights_off": ("->boolean",)},
        )

        def handler(operation: str, args: list[Any]) -> SimFuture:
            from repro.x10.codes import X10Function
            from repro.x10.powerline import X10Signal

            functions = {
                "all_units_off": X10Function.ALL_UNITS_OFF,
                "all_lights_on": X10Function.ALL_LIGHTS_ON,
                "all_lights_off": X10Function.ALL_LIGHTS_OFF,
            }
            return self.controller.driver.send_signal(
                X10Signal.for_function(house, functions[operation])
            ).then(lambda _: True)

        context = {"x10_house": house, "x10_kind": "house"}
        return (f"X10_house_{house}", interface, handler, context)

    def _export_for(self, info: X10DeviceInfo):
        ops: dict[str, tuple] = {
            "turn_on": ("->boolean",),
            "turn_off": ("->boolean",),
            "is_on": ("->boolean",),
        }
        if info.kind == "lamp":
            ops["dim"] = ("int", "->boolean")
            ops["brighten"] = ("int", "->boolean")
        interface = simple_interface(info.service_name(), ops)
        address = info.address

        def handler(operation: str, args: list[Any]) -> SimFuture:
            # Island-local span for the native powerline work: only created
            # when a bridged call is already being traced (the VSG dispatch
            # span is ambient here), so untraced local traffic costs nothing.
            tracer = self.vsg.obs.tracer
            span = None
            if tracer.enabled and tracer.current() is not None:
                span = tracer.start_span(
                    f"x10.{operation} {address}", island=self.vsg.island, kind="native"
                )
            if operation == "is_on":
                # Two-way X10: the module itself answers on the powerline.
                status = self.controller.status_request(address)
                if span is not None:
                    status.add_done_callback(lambda f, s=span: s.finish(f.exception()))
                return status
            if operation == "turn_on":
                raw = self.controller.turn_on(address)
            elif operation == "turn_off":
                raw = self.controller.turn_off(address)
            elif operation == "dim":
                raw = self.controller.dim(address, int(args[0]))
            elif operation == "brighten":
                raw = self.controller.brighten(address, int(args[0]))
            else:
                if span is not None:
                    span.finish()
                raise ConversionError(f"X10 device has no operation {operation!r}")
            result: SimFuture = SimFuture()

            def relay(future: SimFuture) -> None:
                if span is not None:
                    span.finish(future.exception())
                if future.exception() is not None:
                    result.set_exception(future.exception())
                else:
                    result.set_result(True)

            raw.add_done_callback(relay)
            return result

        context = {
            "x10_address": str(address),
            "x10_kind": info.kind,
            "device_name": info.name,
        }
        if info.room:
            context["room"] = info.room
        return (info.service_name(), interface, handler, context)

    # -- Server Proxy: neutral -> X10 ----------------------------------------------

    def _materialise(self, document: WsdlDocument, interface: ServiceInterface) -> SimFuture:
        # Nothing to instantiate: remote services become *bindable targets*.
        # The Universal Remote application binds them to button addresses.
        return SimFuture.completed(True)

    def bind_button(
        self,
        address: X10Address,
        service: str,
        operation: str,
        args: list[Any] | None = None,
        function: X10Function = X10Function.ON,
    ) -> ButtonBinding:
        """Map ``(address, function)`` presses to a neutral call.

        The target must have been imported (i.e. exist in the VSR) — this
        is the Server Proxy role for a middleware that cannot host
        services, only address them.
        """
        if service not in self.imported and service not in self.exported:
            raise ConversionError(
                f"cannot bind {service!r}: not imported into the X10 island"
            )
        binding = ButtonBinding(service=service, operation=operation, args=list(args or []))
        self._bindings[(address, function)] = binding
        return binding

    def unbind_button(self, address: X10Address, function: X10Function = X10Function.ON) -> None:
        self._bindings.pop((address, function), None)

    @property
    def bindings(self) -> dict[tuple[X10Address, X10Function], ButtonBinding]:
        return dict(self._bindings)

    # -- events ------------------------------------------------------------

    def _on_x10_event(self, address: X10Address, function: X10Function, dims: int) -> None:
        self.events_bridged += 1
        self.vsg.publish_event(
            f"x10.{function.name}",
            {"address": str(address), "function": function.name, "dims": dims},
        )
        binding = self._bindings.get((address, function))
        if binding is not None:
            binding.invocations += 1
            future = self.vsg.invoke(binding.service, binding.operation, list(binding.args))
            future.add_done_callback(lambda f: f.exception())  # surfaced via stats
