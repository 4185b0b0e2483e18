"""Tests for the canned smart-home builder and full-mesh reachability —
the Figure 1 / Figure 3 integration level."""

import itertools

import pytest

from repro.apps.home import build_smart_home
from repro.errors import DirectoryUnavailableError

#: A read-only probe call per island's flagship service.
PROBES = {
    "jini": ("Refrigerator", "get_temperature", []),
    "havi": ("Digital_TV_tuner", "get_channel", []),
    "x10": ("X10_A3_fan", "turn_on", []),
    "mail": ("InternetMail", "check_inbox", ["probe@home.sim"]),
}


class TestTopology:
    def test_all_services_published(self, home):
        catalog = home.sim.run_until_complete(home.mm.catalog())
        assert len(catalog) == 13
        by_island = {}
        for document in catalog:
            by_island.setdefault(document.context["island"], set()).add(document.service)
        assert set(by_island) == {"jini", "havi", "x10", "mail"}
        assert len(by_island["jini"]) == 4
        assert len(by_island["havi"]) == 4
        assert len(by_island["x10"]) == 4
        assert len(by_island["mail"]) == 1

    def test_full_mesh_reachability(self, home):
        """Figure 1's promise: every island can invoke every other
        island's services (and its own, through the same neutral path)."""
        for source, target in itertools.product(PROBES, repeat=2):
            service, operation, args = PROBES[target]
            result = home.invoke_from(source, service, operation, args)
            assert result is not None or target == "mail", (source, target)

    def test_islands_are_truly_isolated_at_network_level(self, home):
        """No shortcut exists: a Jini device node has no interface on the
        HAVi segment or the backbone."""
        fridge_node = home.network.node("jini-refrigerator")
        segments = {iface.segment.name for iface in fridge_node.interfaces}
        assert segments == {"jini-eth"}

    def test_gateways_are_multi_homed(self, home):
        gw = home.network.node("gw-jini")
        segments = {iface.segment.name for iface in gw.interfaces}
        assert segments == {"backbone", "jini-eth"}

    def test_partial_homes_build(self):
        built = build_smart_home(with_x10=False, with_mail=False)
        catalog = built.connect()
        islands = {d.context["island"] for d in catalog}
        assert islands == {"jini", "havi"}

    def test_custom_poll_interval_propagates(self):
        built = build_smart_home(poll_interval=7.5)
        for island in built.islands.values():
            assert island.gateway.poll_interval == 7.5

    def test_deterministic_rebuild(self):
        """Two independent builds produce identical catalogs and timing."""
        first = build_smart_home()
        first.connect()
        second = build_smart_home()
        second.connect()
        assert first.sim.now == second.sim.now
        catalog_a = first.sim.run_until_complete(first.mm.catalog())
        catalog_b = second.sim.run_until_complete(second.mm.catalog())
        assert [d.service for d in catalog_a] == [d.service for d in catalog_b]

    def test_dark_directory_catalog_fails(self, home):
        # An empty answer from a directory that did not answer is not an
        # empty home.
        home.mm.directory_node.crash()
        with pytest.raises(DirectoryUnavailableError):
            home.sim.run_until_complete(home.mm.catalog())
        with pytest.raises(DirectoryUnavailableError):
            home.find_services(room="hall")


class TestScenarioFromPaperIntro:
    def test_control_everything_from_the_pc(self, home):
        """Section 1: 'we want to control the TV, the VCR, the refrigerator
        and the air conditioner from a PC without being conscious of
        heterogeneous forms of network and middleware.'  The PC here is any
        single island's gateway client — we use Jini's."""
        home.invoke_from("jini", "Digital_TV_display", "power_on")
        home.invoke_from("jini", "Vcr", "set_channel", [5])
        home.invoke_from("jini", "Refrigerator", "set_temperature", [3.0])
        home.invoke_from("jini", "AirConditioner", "power_on")
        home.invoke_from("jini", "AirConditioner", "set_target", [22.0])
        assert home.tv_display.powered
        assert home.vcr.channel == 5
        assert home.refrigerator.temperature == 3.0
        assert home.air_conditioner.powered
        assert home.air_conditioner.target == 22.0

    def test_control_from_the_tv_too(self, home):
        """Section 1: 'we want to control these appliances from the GUI of
        the digital TV too' — the HAVi island drives the Jini devices."""
        home.invoke_from("havi", "AirConditioner", "set_mode", ["heat"])
        assert home.air_conditioner.mode == "heat"


class TestRefreshStability:
    def test_double_refresh_never_moves_a_service(self, home):
        """Loop-prevention across ALL shipped PCMs: after two refreshes,
        every service still belongs to its original island (a hijacked
        export would keep the name but change island)."""

        def snapshot():
            return {
                (d.service, d.context["island"])
                for d in home.sim.run_until_complete(home.mm.catalog())
            }

        before = snapshot()
        home.sim.run_until_complete(home.mm.refresh())
        home.sim.run_until_complete(home.mm.refresh())
        assert snapshot() == before
