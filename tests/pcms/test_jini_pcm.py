"""Tests for the Jini PCM: both proxy directions, loop prevention."""

import pytest

from repro.devices.av import Laserdisc
from repro.errors import RemoteServiceError
from repro.jini.service import JiniClient, JiniHost, JiniService
from repro.pcms.jini_pcm import interface_from_ops, ops_from_interface
from repro.core.interface import simple_interface


class TestOpsTables:
    def test_ops_interface_roundtrip(self):
        interface = simple_interface(
            "Svc", {"play": ("->boolean",), "seek": ("int", "double", "->int")}
        )
        assert interface_from_ops("Svc", ops_from_interface(interface)) == interface


class TestClientProxyDirection:
    def test_jini_services_appear_in_catalog(self, home):
        catalog = home.sim.run_until_complete(home.mm.catalog())
        jini_services = {d.service for d in catalog if d.context.get("island") == "jini"}
        assert jini_services == {"Laserdisc", "Vcr", "Refrigerator", "AirConditioner"}

    def test_exported_interface_matches_ops_table(self, home):
        catalog = home.sim.run_until_complete(home.mm.catalog())
        laserdisc = next(d for d in catalog if d.service == "Laserdisc")
        assert laserdisc.has_operation("goto_chapter")
        assert laserdisc.operation("goto_chapter").output == "int"
        assert laserdisc.context["middleware"] == "jini"

    def test_remote_call_reaches_jini_impl(self, home):
        result = home.invoke_from("havi", "Refrigerator", "set_temperature", [2.5])
        assert result == 2.5
        assert home.refrigerator.temperature == 2.5

    def test_jini_exception_crosses_as_remote_fault(self, home):
        with pytest.raises(RemoteServiceError, match="out of range"):
            home.invoke_from("havi", "Laserdisc", "goto_chapter", [999])


class TestServerProxyDirection:
    def lookup_bridged(self, home, service):
        """A plain Jini client (new host on the Jini segment) finds the
        bridged facade through the ordinary lookup service."""
        host = JiniHost(home.network, f"native-client-{service}", home.network.segment("jini-eth"))
        client = JiniClient(host)
        lookup_ref = home.sim.run_until_complete(client.discover_lookup())
        return client, home.sim.run_until_complete(
            client.lookup_one(lookup_ref, f"vsg.{service}")
        )

    def test_unmodified_jini_client_calls_havi_camera(self, home):
        """Figure 2's Server Proxy, live: a legacy Jini client drives a
        HAVi device without knowing HAVi exists."""
        client, proxy = self.lookup_bridged(home, "DV_Camera_camera")
        assert home.sim.run_until_complete(proxy.zoom(6)) == 6
        assert home.camera.zoom_level == 6

    def test_unmodified_jini_client_switches_x10_lamp(self, home):
        client, proxy = self.lookup_bridged(home, "X10_A1_hall_lamp")
        assert home.sim.run_until_complete(proxy.turn_on()) is True
        assert home.lamps["hall"].on

    def test_bridged_registrations_carry_origin_metadata(self, home):
        host = JiniHost(home.network, "inspector", home.network.segment("jini-eth"))
        client = JiniClient(host)
        lookup_ref = home.sim.run_until_complete(client.discover_lookup())
        items = home.sim.run_until_complete(
            client.lookup(lookup_ref, interface="vsg.DV_Camera_camera")
        )
        assert items[0].attributes["bridged"] is True
        assert items[0].attributes["origin_island"] == "havi"

    def test_bridges_not_reexported(self, home):
        """Loop prevention: re-running export must not turn Server Proxies
        back into neutral services."""
        home.sim.run_until_complete(home.mm.refresh())
        catalog = home.sim.run_until_complete(home.mm.catalog())
        jini_names = [d.service for d in catalog if d.context.get("island") == "jini"]
        assert sorted(jini_names) == ["AirConditioner", "Laserdisc", "Refrigerator", "Vcr"]

    def test_bridge_leases_renewed(self, home):
        """Bridged registrations survive well past their lease duration."""
        home.run(400.0)
        host = JiniHost(home.network, "late-client", home.network.segment("jini-eth"))
        client = JiniClient(host)
        lookup_ref = home.sim.run_until_complete(client.discover_lookup())
        items = home.sim.run_until_complete(
            client.lookup(lookup_ref, interface="vsg.Digital_TV_display")
        )
        assert len(items) == 1


class TestUnexportableServices:
    """One Jini service whose description cannot be converted is skipped
    and counted; the island's other services still export."""

    @staticmethod
    def publish_laserdisc(home, name: str) -> None:
        segment = home.network.segment("jini-eth")
        host = JiniHost(home.network, f"jini-{name.replace(' ', '-')}", segment)
        service = JiniService(
            host, Laserdisc(), (Laserdisc.JINI_INTERFACE,),
            {"name": name, "ops": Laserdisc.JINI_OPS},
        )
        home.sim.run_until_complete(service.publish(home.lookup.ref))

    def test_refresh_skips_the_bad_service(self, home):
        self.publish_laserdisc(home, "bad name")
        self.publish_laserdisc(home, "Laserdisc2")
        home.sim.run_until_complete(home.mm.refresh())
        catalog = home.sim.run_until_complete(home.mm.catalog())
        names = {d.service for d in catalog if d.context.get("island") == "jini"}
        assert "Laserdisc2" in names
        assert "bad name" not in names
        assert home.islands["jini"].pcm.rejected_exports == 1
        assert home.invoke_from("havi", "Laserdisc2", "play") is True

    def test_hot_plug_skips_the_bad_service(self, home):
        pcm = home.islands["jini"].pcm
        home.sim.run_until_complete(pcm.enable_liveness())
        self.publish_laserdisc(home, "bad name")
        self.publish_laserdisc(home, "Laserdisc2")
        home.run(2.0)  # transition events + export settle
        assert pcm.rejected_exports == 1
        assert pcm.hotplug_exports == 1
        assert home.invoke_from("havi", "Laserdisc2", "play") is True
