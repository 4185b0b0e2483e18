"""Device Control Modules and Functional Control Modules.

HAVi models a device as a DCM hosting one FCM per controllable function
(a camcorder = one DCM with a VCR FCM and a camera FCM, say).  Each FCM
exposes a typed *command set*; the HAVi PCM later turns command sets into
neutral service interfaces, so FCMs also answer a ``_describe`` request
with their own machine-readable description.
"""

from __future__ import annotations

from typing import Any

from repro.errors import HaviError
from repro.net.simkernel import SimFuture
from repro.havi.bus1394 import HaviNode
from repro.havi.messaging import MessagingSystem, Seid
from repro.havi.registry import RegistryClient


class Fcm:
    """Base functional control module.

    Subclasses declare ``FCM_TYPE``, a ``COMMANDS`` table mapping operation
    names to parameter type tuples (types are ``int`` / ``double`` /
    ``string`` / ``boolean``), an optional ``RETURNS`` table, and implement
    each operation as a plain method.
    """

    FCM_TYPE = "generic"
    COMMANDS: dict[str, tuple[str, ...]] = {}
    RETURNS: dict[str, str] = {}
    N_INPUT_PLUGS = 0
    N_OUTPUT_PLUGS = 0

    def __init__(self, dcm: "Dcm", name: str | None = None) -> None:
        self.dcm = dcm
        self.name = name or f"{dcm.device_name}.{self.FCM_TYPE}"
        self.seid = dcm.havi_node.messaging.register_element(self._handle)
        self.huid = f"{self.seid.guid:x}:{self.seid.local:x}"
        dcm.fcms.append(self)

    # -- request dispatch ---------------------------------------------------------

    def _handle(self, src: Seid, operation: str, args: list[Any]) -> Any:
        if operation == "_describe":
            return self.describe()
        if operation not in self.COMMANDS:
            raise HaviError(f"FCM {self.name!r} has no command {operation!r}")
        expected = self.COMMANDS[operation]
        if len(args) != len(expected):
            raise HaviError(
                f"{self.name}.{operation} expects {len(expected)} args, got {len(args)}"
            )
        return getattr(self, operation)(*args)

    def describe(self) -> dict[str, Any]:
        """Machine-readable command-set description."""
        return {
            "fcm_type": self.FCM_TYPE,
            "name": self.name,
            "huid": self.huid,
            "commands": {op: list(params) for op, params in self.COMMANDS.items()},
            "returns": dict(self.RETURNS),
        }

    def attributes(self) -> dict[str, Any]:
        """Registry attributes for this FCM."""
        attributes = {
            "element_type": "fcm",
            "fcm_type": self.FCM_TYPE,
            "device_name": self.dcm.device_name,
            "device_class": self.dcm.device_class,
            "huid": self.huid,
        }
        if self.dcm.room:
            attributes["room"] = self.dcm.room
        return attributes

    # -- events ------------------------------------------------------------

    def post_event(self, event_type: str, payload: Any = None) -> None:
        """Broadcast a HAVi event from this FCM to every bus node (the
        HAVi Event Manager role).  The HAVi PCM republishes these on the
        framework bus as ``havi.<event_type>``."""
        self.dcm.havi_node.messaging.send_event(
            self.seid,
            {
                "event_type": event_type,
                "source_huid": self.huid,
                "device_name": self.dcm.device_name,
                "payload": payload,
            },
        )

    # -- stream hooks (overridden by AV FCMs) ----------------------------------

    def on_stream_connected(self, connection: Any, role: str) -> None:
        """Called by the stream manager; ``role`` is 'source' or 'sink'."""

    def on_stream_data(self, connection: Any, nbytes: int) -> None:
        """Sink-side periodic data arrival callback."""

    def on_stream_disconnected(self, connection: Any, role: str) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} seid={self.seid}>"


class Dcm:
    """Device control module: the device-level software element."""

    def __init__(
        self,
        havi_node: HaviNode,
        device_name: str,
        device_class: str,
        vendor: str = "Reproduction Electronics",
        room: str = "",
    ) -> None:
        self.havi_node = havi_node
        self.device_name = device_name
        self.device_class = device_class
        self.vendor = vendor
        self.room = room
        self.fcms: list[Fcm] = []
        self.seid = havi_node.messaging.register_element(self._handle)

    def _handle(self, src: Seid, operation: str, args: list[Any]) -> Any:
        if operation == "get_device_info":
            return {
                "device_name": self.device_name,
                "device_class": self.device_class,
                "vendor": self.vendor,
                "fcm_seids": [fcm.seid.to_wire() for fcm in self.fcms],
            }
        raise HaviError(f"DCM {self.device_name!r} has no operation {operation!r}")

    def attributes(self) -> dict[str, Any]:
        attributes = {
            "element_type": "dcm",
            "device_name": self.device_name,
            "device_class": self.device_class,
            "vendor": self.vendor,
        }
        if self.room:
            attributes["room"] = self.room
        return attributes

    def register(self, registry: RegistryClient) -> SimFuture:
        """Register the DCM and all its FCMs; resolves when every
        registration has been acknowledged."""
        futures = [registry.register(self.seid, self.attributes())]
        futures += [registry.register(fcm.seid, fcm.attributes()) for fcm in self.fcms]
        return SimFuture.all_of(futures).then(lambda _: True)


class FcmHandle:
    """Client-side handle on a (possibly remote) FCM."""

    def __init__(self, messaging: MessagingSystem, seid: Seid) -> None:
        self.messaging = messaging
        self.seid = seid
        self._src = messaging.register_element(self._reject)

    @staticmethod
    def _reject(src: Seid, operation: str, args: list[Any]) -> Any:
        raise HaviError("FCM handles accept no inbound requests")

    def call(self, operation: str, *args: Any) -> SimFuture:
        return self.messaging.send_request(self._src, self.seid, operation, list(args))

    def describe(self) -> SimFuture:
        return self.call("_describe")
