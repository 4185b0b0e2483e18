"""Canned smart-home topology.

Builds the home of the paper's Section 1 example: "a HAVi-based IEEE1394
network connecting a digital TV and VCR, a Jini-based Ethernet network
connecting a refrigerator and an air conditioner" — plus the X10 powerline
with lamps, sensors and the handset of Figure 5, and the Internet Mail
island of Figure 3.  Everything bridged by one MetaMiddleware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.network import Network
from repro.net.segment import (
    EthernetSegment,
    IEEE1394Segment,
    PowerlineSegment,
    SerialLink,
)
from repro.net.simkernel import Simulator
from repro.net.transport import TransportStack
from repro.core.framework import Island, MetaMiddleware
from repro.core.vsr import too_few_seen
from repro.devices.appliances import AirConditioner, Refrigerator
from repro.devices.av import Laserdisc, NetworkVcr
from repro.havi.bus1394 import Bus1394, HaviNode
from repro.havi.dcm import Dcm
from repro.havi.fcm_types import CameraFcm, DisplayFcm, TunerFcm, VcrFcm
from repro.havi.messaging import REGISTRY_LOCAL_ID, Seid
from repro.havi.registry import Registry, RegistryClient
from repro.havi.streams import StreamManager
from repro.jini.lookup import LookupService
from repro.jini.service import JiniHost, JiniService
from repro.mail.mailbox import MailServer
from repro.pcms.havi_pcm import HaviPcm
from repro.pcms.jini_pcm import JiniPcm
from repro.pcms.mail_pcm import MailPcm
from repro.pcms.x10_pcm import X10DeviceInfo, X10Pcm
from repro.x10.cm11a import Cm11aInterface
from repro.x10.codes import X10Address
from repro.x10.controller import X10Controller
from repro.x10.devices import ApplianceModule, LampModule, MotionSensor, RemoteHandset


@dataclass
class SmartHome:
    """Handles to every part of the built home."""

    sim: Simulator
    network: Network
    mm: MetaMiddleware
    islands: dict[str, Island] = field(default_factory=dict)
    # Jini island.
    lookup: LookupService | None = None
    laserdisc: Laserdisc | None = None
    vcr: NetworkVcr | None = None
    refrigerator: Refrigerator | None = None
    air_conditioner: AirConditioner | None = None
    jini_services: dict[str, JiniService] = field(default_factory=dict)
    # HAVi island.
    bus: Bus1394 | None = None
    havi_registry: Registry | None = None
    tv_display: DisplayFcm | None = None
    tv_tuner: TunerFcm | None = None
    camera: CameraFcm | None = None
    camera_vcr: VcrFcm | None = None
    stream_manager: StreamManager | None = None
    # X10 island.
    cm11a: Cm11aInterface | None = None
    controller: X10Controller | None = None
    lamps: dict[str, LampModule] = field(default_factory=dict)
    fan: ApplianceModule | None = None
    motion_sensor: MotionSensor | None = None
    handset: RemoteHandset | None = None
    # Mail island.
    mail_server: MailServer | None = None

    def connect(self) -> list:
        """Run the framework's integration sequence to completion."""
        return self.sim.run_until_complete(self.mm.connect())

    def run(self, duration: float) -> None:
        self.sim.run_for(duration)

    def island(self, name: str) -> Island:
        return self.mm.island(name)

    def invoke_from(self, island: str, service: str, operation: str, args: list[Any] | None = None):
        """Synchronously invoke a neutral call from one island's gateway."""
        future = self.island(island).gateway.invoke(service, operation, list(args or []))
        return self.sim.run_until_complete(future)

    def find_services(self, **context: str) -> list:
        """Context-aware VSR query (paper Sec. 3.3: the repository holds
        'service contexts' — room, middleware, device kind ...), e.g.
        ``home.find_services(room="living")``.  Raises when the directory
        answered nothing at all (see :func:`too_few_seen`)."""
        any_island = next(iter(self.islands.values()))
        documents = self.sim.run_until_complete(any_island.gateway.vsr.find(context))
        blind = too_few_seen(documents, 1)
        if blind is not None:
            raise blind
        return documents


def build_smart_home(
    sim: Simulator | None = None,
    with_jini: bool = True,
    with_havi: bool = True,
    with_x10: bool = True,
    with_mail: bool = True,
    poll_interval: float = 2.0,
    protocol_factory=None,
    policy=None,
    obs=None,
    interchange=None,
) -> SmartHome:
    """Assemble the full topology (not yet connected — call ``.connect()``).

    ``protocol_factory`` overrides the gateway protocol for every island
    (``TransportStack -> GatewayProtocol``); the default is the prototype's
    SOAP binding.  ``policy`` (a :class:`repro.core.resilience.CallPolicy`)
    sets every island's resilience knobs — deadlines, retries, breaker.
    ``obs`` (a :class:`repro.obs.Observability`) turns on tracing/metrics
    for every island; the default records nothing.  ``interchange`` (an
    :class:`repro.soap.http.InterchangeConfig`) picks every SOAP island's
    wire: the default is the 2002 legacy wire, and
    :data:`repro.soap.http.REACTOR_INTERCHANGE` is the modern wire (pooled
    keep-alive, terse gzip envelopes, streamed event channels).
    """
    sim = sim or Simulator()
    network = Network(sim)
    backbone = network.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(
        network, backbone, policy=policy, obs=obs, interchange=interchange
    )
    home = SmartHome(sim=sim, network=network, mm=mm)

    if with_jini:
        _build_jini_island(home, mm, network, poll_interval, protocol_factory)
    if with_havi:
        _build_havi_island(home, mm, network, poll_interval, protocol_factory)
    if with_x10:
        _build_x10_island(home, mm, network, poll_interval, protocol_factory)
    if with_mail:
        _build_mail_island(home, mm, network, poll_interval, protocol_factory)
    return home


def _build_jini_island(home, mm, network, poll_interval, protocol_factory) -> None:
    sim = network.sim
    segment = network.create_segment(EthernetSegment, "jini-eth")

    lus_host = JiniHost(network, "jini-lus", segment)
    home.lookup = LookupService(lus_host.runtime, segment)
    lookup_ref = home.lookup.ref

    home.laserdisc = Laserdisc()
    home.vcr = NetworkVcr()
    home.refrigerator = Refrigerator()
    home.air_conditioner = AirConditioner()
    devices = {
        "Laserdisc": (home.laserdisc, "living"),
        "Vcr": (home.vcr, "living"),
        "Refrigerator": (home.refrigerator, "kitchen"),
        "AirConditioner": (home.air_conditioner, "living"),
    }
    for name, (impl, room) in devices.items():
        host = JiniHost(network, f"jini-{name.lower()}", segment)
        service = JiniService(
            host,
            impl,
            interfaces=(impl.JINI_INTERFACE,),
            attributes={"name": name, "ops": impl.JINI_OPS, "room": room},
        )
        sim.run_until_complete(service.publish(lookup_ref, duration=120.0))
        home.jini_services[name] = service

    def pcm_factory(island: Island) -> JiniPcm:
        host = JiniHost.adopt(network, island.node, island.stack, segment)
        return JiniPcm(island.gateway, host, lookup_ref)

    home.islands["jini"] = mm.add_island(
        "jini", segment, pcm_factory,
        protocol_factory=protocol_factory, poll_interval=poll_interval,
    )


def _build_havi_island(home, mm, network, poll_interval, protocol_factory) -> None:
    sim = network.sim
    segment = network.create_segment(IEEE1394Segment, "havi-1394")
    home.bus = Bus1394(network, segment)

    tv_node = HaviNode(network, "havi-tv", home.bus)
    home.havi_registry = Registry(tv_node)
    tv_dcm = Dcm(tv_node, "Digital_TV", "display", room="living")
    home.tv_display = DisplayFcm(tv_dcm)
    home.tv_tuner = TunerFcm(tv_dcm)

    cam_node = HaviNode(network, "havi-camera", home.bus)
    cam_dcm = Dcm(cam_node, "DV_Camera", "camcorder", room="hall")
    home.camera = CameraFcm(cam_dcm)
    home.camera_vcr = VcrFcm(cam_dcm)

    home.stream_manager = StreamManager(home.bus)

    sim.run_until_complete(tv_dcm.register(RegistryClient.for_bus(tv_node, tv_node)))
    sim.run_until_complete(cam_dcm.register(RegistryClient.for_bus(cam_node, tv_node)))

    registry_guid = tv_node.guid

    def pcm_factory(island: Island) -> HaviPcm:
        havi_node = HaviNode.adopt(network, island.node, home.bus)
        registry_client = RegistryClient(
            havi_node.messaging, Seid(registry_guid, REGISTRY_LOCAL_ID)
        )
        return HaviPcm(island.gateway, havi_node, registry_client)

    home.islands["havi"] = mm.add_island(
        "havi", segment, pcm_factory,
        protocol_factory=protocol_factory, poll_interval=poll_interval,
    )


def _build_x10_island(home, mm, network, poll_interval, protocol_factory) -> None:
    powerline = network.create_segment(PowerlineSegment, "powerline")
    serial = network.create_segment(SerialLink, "serial0")

    home.cm11a = Cm11aInterface(network, "cm11a", serial, powerline)
    home.lamps["hall"] = LampModule(network, "hall-lamp", powerline, X10Address("A", 1))
    home.lamps["porch"] = LampModule(network, "porch-lamp", powerline, X10Address("A", 2))
    home.fan = ApplianceModule(network, "fan", powerline, X10Address("A", 3))
    home.motion_sensor = MotionSensor(network, "hall-pir", powerline, X10Address("A", 9))
    home.handset = RemoteHandset(network, "handset", powerline)

    device_map = [
        X10DeviceInfo(X10Address("A", 1), "hall_lamp", "lamp", room="hall"),
        X10DeviceInfo(X10Address("A", 2), "porch_lamp", "lamp", room="porch"),
        X10DeviceInfo(X10Address("A", 3), "fan", "appliance", room="living"),
        X10DeviceInfo(X10Address("A", 9), "hall_pir", "sensor", room="hall"),
    ]

    def pcm_factory(island: Island) -> X10Pcm:
        home.controller = X10Controller(network, island.node, serial)
        return X10Pcm(island.gateway, home.controller, device_map)

    home.islands["x10"] = mm.add_island(
        "x10", None, pcm_factory,
        protocol_factory=protocol_factory, poll_interval=poll_interval,
    )


def add_upnp_island(
    home: SmartHome,
    poll_interval: float = 2.0,
    protocol_factory=None,
) -> Island:
    """Join a UPnP island to an already built home — the experiment-C5
    'new middleware participates effortlessly' path.

    Creates an Ethernet segment with two stock UPnP devices (a binary
    light and a media renderer), adds the island with its one new PCM, and
    leaves calling ``home.mm.refresh()`` (or ``home.connect()``) to the
    caller so the join cost is measurable.
    """
    from repro.pcms.upnp_pcm import UpnpPcm
    from repro.upnp.device import UpnpDevice

    network = home.network
    segment = network.create_segment(EthernetSegment, "upnp-eth")

    light = UpnpDevice(
        network, "upnp-light", segment,
        friendly_name="Porchlight", device_type="urn:schemas-repro:device:BinaryLight:1",
    )
    light_state = {"on": False}

    def set_target(value: bool) -> bool:
        light_state["on"] = bool(value)
        light.notify("SwitchPower", "Status", light_state["on"])
        return light_state["on"]

    light.add_service(
        "SwitchPower",
        {
            "SetTarget": (set_target, (("NewTargetValue", "boolean"),), "boolean"),
            "GetStatus": (lambda: light_state["on"], (), "boolean"),
        },
    )

    renderer = UpnpDevice(
        network, "upnp-renderer", segment,
        friendly_name="Renderer", device_type="urn:schemas-repro:device:MediaRenderer:1",
    )
    renderer_state = {"playing": False, "volume": 50}

    def play() -> bool:
        renderer_state["playing"] = True
        return True

    def stop() -> bool:
        renderer_state["playing"] = False
        return True

    def set_volume(volume: int) -> int:
        renderer_state["volume"] = max(0, min(100, int(volume)))
        return renderer_state["volume"]

    renderer.add_service(
        "AVTransport",
        {
            "Play": (play, (), "boolean"),
            "Stop": (stop, (), "boolean"),
            "SetVolume": (set_volume, (("DesiredVolume", "i4"),), "i4"),
        },
    )

    def pcm_factory(island: Island) -> UpnpPcm:
        return UpnpPcm(island.gateway, segment)

    island = home.mm.add_island(
        "upnp", segment, pcm_factory,
        protocol_factory=protocol_factory, poll_interval=poll_interval,
    )
    home.islands["upnp"] = island
    home.upnp_devices = {"light": light, "renderer": renderer}
    home.upnp_state = {"light": light_state, "renderer": renderer_state}
    return island


def _build_mail_island(home, mm, network, poll_interval, protocol_factory) -> None:
    mail_node = network.create_node("mailhost")
    network.attach(mail_node, mm.backbone)
    mail_stack = TransportStack(mail_node, network)
    home.mail_server = MailServer(mail_stack, domain="home.sim")
    mail_address = mail_stack.local_address(mm.backbone)

    def pcm_factory(island: Island) -> MailPcm:
        return MailPcm(island.gateway, mail_address)

    home.islands["mail"] = mm.add_island(
        "mail", None, pcm_factory,
        protocol_factory=protocol_factory, poll_interval=poll_interval,
    )
