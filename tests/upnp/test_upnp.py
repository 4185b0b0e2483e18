"""Tests for the UPnP substrate."""

import pytest

from repro.errors import SoapFault, UpnpError
from repro.net.addressing import NodeAddress
from repro.net.transport import TransportStack
from repro.upnp.control import UpnpControlPoint
from repro.upnp.description import (
    Action,
    ActionArgument,
    DeviceDescription,
    ServiceDescription,
)
from repro.upnp.device import UpnpDevice
from repro.upnp.urls import make_url, parse_url

from tests.conftest import make_host


@pytest.fixture
def light(sim, net, eth):
    device = UpnpDevice(
        net, "light", eth, friendly_name="Porchlight",
        device_type="urn:schemas-repro:device:BinaryLight:1",
    )
    state = {"on": False}

    def set_target(value):
        state["on"] = bool(value)
        device.notify("SwitchPower", "Status", state["on"])
        return state["on"]

    device.add_service(
        "SwitchPower",
        {
            "SetTarget": (set_target, (("NewTargetValue", "boolean"),), "boolean"),
            "GetStatus": (lambda: state["on"], (), "boolean"),
        },
    )
    return device, state


@pytest.fixture
def control_point(sim, net, eth):
    return UpnpControlPoint(make_host(net, "cp", eth))


class TestUrls:
    def test_roundtrip(self):
        url = make_url(NodeAddress("upnp-eth", 3), 8090, "/control/X")
        assert parse_url(url) == (NodeAddress("upnp-eth", 3), 8090, "/control/X")

    def test_pathless_url(self):
        assert parse_url("http://seg/1:80")[2] == "/"

    @pytest.mark.parametrize(
        "bad",
        [
            "ftp://x/1:2/",
            "http://seg:80/",
            "http://seg/1/",
            # Digits of another script would not render back to the URL.
            "http://upnp-eth/\u0661:\u0668\u0660/desc.xml",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(UpnpError):
            parse_url(bad)


class TestDescriptions:
    def test_xml_roundtrip(self):
        description = DeviceDescription(
            friendly_name="TV Set",
            device_type="urn:x:device:TV:1",
            udn="uuid:tv-1",
            services=[
                ServiceDescription(
                    service_id="urn:x:serviceId:Display",
                    service_type="urn:x:service:Display:1",
                    control_path="/control/Display",
                    event_path="/event/Display",
                    actions=(
                        Action("PowerOn", (), "boolean"),
                        Action("SetInput", (ActionArgument("Input", "string"),), "string"),
                    ),
                )
            ],
        )
        assert DeviceDescription.from_xml(description.to_xml()) == description

    def test_unknown_types_rejected(self):
        with pytest.raises(UpnpError):
            ActionArgument("x", "u64")
        with pytest.raises(UpnpError):
            Action("a", (), "u64")


class TestDiscovery:
    def test_msearch_finds_device(self, sim, eth, light, control_point):
        device, _ = light
        control_point.search(eth)
        sim.run_for(1.0)
        assert device.udn in control_point.discovered
        assert control_point.discovered[device.udn] == device.location

    def test_periodic_announcements_heard(self, sim, eth, light, control_point):
        sim.run_for(35.0)  # one announce interval
        device, _ = light
        assert device.udn in control_point.discovered

    def test_byebye_removes_device(self, sim, eth, light, control_point):
        device, _ = light
        control_point.search(eth)
        sim.run_for(1.0)
        device.announcer.stop(send_byebye=True)
        sim.run_for(1.0)
        assert device.udn not in control_point.discovered

    def test_alive_watcher_callbacks(self, sim, eth, light, control_point):
        seen = []
        control_point.on_device_alive(lambda usn, location: seen.append(usn))
        control_point.search(eth)
        sim.run_for(1.0)
        assert seen == ["uuid:light"]


class TestControl:
    def fetch(self, sim, eth, control_point, device):
        control_point.search(eth)
        sim.run_for(1.0)
        return sim.run_until_complete(
            control_point.fetch_description(control_point.discovered[device.udn])
        )

    def test_description_fetch(self, sim, eth, light, control_point):
        device, _ = light
        description, base = self.fetch(sim, eth, control_point, device)
        assert description.friendly_name == "Porchlight"
        service = description.service("urn:repro:serviceId:SwitchPower")
        assert {a.name for a in service.actions} == {"SetTarget", "GetStatus"}

    def test_invoke_action(self, sim, eth, light, control_point):
        device, state = light
        description, base = self.fetch(sim, eth, control_point, device)
        service = description.service("urn:repro:serviceId:SwitchPower")
        assert sim.run_until_complete(
            control_point.invoke(base, service, "SetTarget", [True])
        ) is True
        assert state["on"] is True
        assert device.actions_served == 1

    def test_unknown_action_faults(self, sim, eth, light, control_point):
        device, _ = light
        description, base = self.fetch(sim, eth, control_point, device)
        service = description.service("urn:repro:serviceId:SwitchPower")
        with pytest.raises(SoapFault):
            sim.run_until_complete(control_point.invoke(base, service, "Explode", []))

    def test_action_error_faults(self, sim, eth, control_point, net):
        device = UpnpDevice(net, "broken", "eth0", friendly_name="B", device_type="urn:x:d:B:1")

        def bad():
            raise ValueError("hardware on fire")

        device.add_service("S", {"Bad": (bad, (), "")})
        description, base = self.fetch(sim, net.segment("eth0"), control_point, device)
        with pytest.raises(SoapFault, match="hardware on fire"):
            sim.run_until_complete(
                control_point.invoke(base, description.services[0], "Bad", [])
            )

    def test_duplicate_service_rejected(self, light):
        device, _ = light
        with pytest.raises(UpnpError):
            device.add_service("SwitchPower", {})


class TestEventing:
    def test_gena_subscribe_and_notify(self, sim, eth, light, control_point):
        device, state = light
        control_point.search(eth)
        sim.run_for(1.0)
        description, base = sim.run_until_complete(
            control_point.fetch_description(control_point.discovered[device.udn])
        )
        service = description.service("urn:repro:serviceId:SwitchPower")
        events = []
        sid = sim.run_until_complete(
            control_point.subscribe(
                base, service, device.udn,
                lambda udn, variable, value: events.append((udn, variable, value)),
            )
        )
        assert sid.startswith("uuid:sub-")
        # Toggle through control: the device notifies the subscriber.
        sim.run_until_complete(control_point.invoke(base, service, "SetTarget", [True]))
        sim.run_for(1.0)
        assert events == [("uuid:light", "Status", True)]
