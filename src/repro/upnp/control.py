"""UPnP control point: discovery, description fetch, control, eventing."""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import HttpError, SoapError
from repro.net.segment import Segment
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.soap import envelope
from repro.soap.http import HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.upnp.description import DeviceDescription, ServiceDescription
from repro.upnp.ssdp import SsdpListener
from repro.upnp.urls import make_url, parse_url

DEFAULT_CALLBACK_PORT = 7878

#: Event callback: (udn, variable, value).
EventCallback = Callable[[str, str, Any], None]


class UpnpControlPoint:
    """Discovers and drives UPnP devices from one node."""

    def __init__(self, stack: TransportStack, callback_port: int = DEFAULT_CALLBACK_PORT) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.http = HttpClient(stack)
        self.listener = SsdpListener(stack, on_alive=self._on_alive, on_byebye=self._on_byebye)
        self.callback_port = callback_port
        self._callback_server = HttpServer(stack, callback_port)
        self._callback_server.register_prefix("/gena/", self._on_gena_notify)
        self._event_callbacks: dict[str, list[EventCallback]] = {}  # path -> callbacks
        self._callback_counter = 0
        self.discovered: dict[str, str] = {}  # usn -> location
        self._alive_watchers: list[Callable[[str, str], None]] = []
        self._byebye_watchers: list[Callable[[str], None]] = []

    # -- discovery ------------------------------------------------------------

    def search(self, segment: Segment | str) -> None:
        self.listener.search(segment)

    def on_device_alive(self, watcher: Callable[[str, str], None]) -> None:
        self._alive_watchers.append(watcher)
        for usn, location in self.discovered.items():
            watcher(usn, location)

    def on_device_byebye(self, watcher: Callable[[str], None]) -> None:
        self._byebye_watchers.append(watcher)

    def _on_alive(self, usn: str, location: str) -> None:
        self.discovered[usn] = location
        for watcher in list(self._alive_watchers):
            watcher(usn, location)

    def _on_byebye(self, usn: str) -> None:
        self.discovered.pop(usn, None)
        for watcher in list(self._byebye_watchers):
            watcher(usn)

    # -- description ------------------------------------------------------------

    def fetch_description(self, location: str) -> SimFuture:
        """Resolve to (DeviceDescription, base (address, port))."""
        address, port, path = parse_url(location)

        def on_response(response: HttpResponse) -> tuple:
            if not response.ok:
                raise HttpError(response.status, response.reason)
            return DeviceDescription.from_xml(response.body), (address, port)

        return self.http.get(address, port, path).then(on_response)

    # -- control ------------------------------------------------------------

    def invoke(
        self,
        base: tuple,
        service: ServiceDescription,
        action: str,
        args: list[Any],
    ) -> SimFuture:
        """Invoke ``action`` at the device's control URL; resolves to the
        return value or fails with :class:`SoapFault`."""
        address, port = base
        body = envelope.build_request(action, args)

        def on_response(response: HttpResponse) -> Any:
            return envelope.parse_envelope(response.body).raise_if_fault().value

        return self.http.post(
            address, port, service.control_path, body,
            headers={"Content-Type": "text/xml", "SOAPAction": f'"{action}"'},
        ).then(on_response)

    # -- eventing ------------------------------------------------------------

    def subscribe(
        self,
        base: tuple,
        service: ServiceDescription,
        udn: str,
        callback: EventCallback,
    ) -> SimFuture:
        """GENA-subscribe to a service; resolves to the subscription id."""
        address, port = base
        self._callback_counter += 1
        path = f"/gena/{self._callback_counter}"
        self._event_callbacks.setdefault(path, []).append(
            lambda _udn, variable, value: callback(udn, variable, value)
        )
        # The callback must be reachable *from the device's segment*: on a
        # multi-homed control point (a gateway) pick that interface.
        local = self.stack.local_address(self.stack.network.segment(address.segment))
        callback_url = make_url(local, self.callback_port, path)

        def on_response(response: HttpResponse) -> str | None:
            if not response.ok:
                raise HttpError(response.status, response.reason)
            return response.header("SID")

        return self.http.request(
            address, port, "SUBSCRIBE", service.event_path,
            headers={"Callback": f"<{callback_url}>", "NT": "upnp:event"},
        ).then(on_response)

    def _on_gena_notify(self, request: HttpRequest) -> HttpResponse:
        if request.method != "NOTIFY":
            return HttpResponse(405)
        try:
            message = envelope.parse_envelope(request.body)
        except SoapError:
            return HttpResponse(400)
        if message.kind != "request" or not message.args:
            return HttpResponse(400)
        properties = message.args[0]
        if isinstance(properties, dict):
            for variable, value in properties.items():
                for callback in self._event_callbacks.get(request.path, []):
                    callback("", variable, value)
        return HttpResponse(200)

    def close(self) -> None:
        self.listener.close()
        self._callback_server.close()
