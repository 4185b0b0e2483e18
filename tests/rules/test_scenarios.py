"""The canned scenarios, end to end over the bridged home."""

import pytest

from repro.apps.automation import HomeAutomation, canned_scenarios
from repro.apps.home import build_smart_home
from repro.errors import RemoteServiceError
from repro.net.simkernel import Simulator
from repro.obs import Observability
from repro.rules import dsl

DAY = 600.0  # compressed 10-minute day for fast tests


def build_auto(day=DAY, **kwargs):
    sim = Simulator()
    home = build_smart_home(sim=sim, **kwargs)
    home.connect()
    auto = HomeAutomation(home, day=day)
    sim.run_until_complete(auto.start())
    return home, auto


def fired(auto, rule):
    return [f for f in auto.engine.firings if f.rule == rule]


class TestCannedScenarios:
    def test_six_scenarios_serialize(self):
        rules = canned_scenarios()
        assert len(rules) >= 6
        assert dsl.loads(dsl.dumps(rules)) == rules

    def test_presence_av_routing(self):
        home, auto = build_auto()
        assert not home.tv_display.powered
        home.motion_sensor.trigger()
        home.sim.run_for(15.0)
        assert fired(auto, "presence-av-routing")
        assert home.tv_display.powered
        assert home.tv_display.input == "1394"
        assert home.camera.capturing

    def test_motion_record_respects_tuner_condition(self):
        home, auto = build_auto()
        home.invoke_from("havi", "Digital_TV_tuner", "set_channel", [99])
        home.motion_sensor.trigger()
        home.sim.run_for(15.0)
        # Watched live on the surveillance channel: no recording.
        assert not fired(auto, "motion-record")
        assert home.camera_vcr.state != "RECORD"

    def test_motion_record_when_not_watched(self):
        home, auto = build_auto()
        home.motion_sensor.trigger()
        home.sim.run_for(15.0)
        assert fired(auto, "motion-record")
        assert home.camera_vcr.state == "RECORD"

    def test_mail_arrival_notification(self):
        home, auto = build_auto()
        home.invoke_from(
            "jini", "InternetMail", "send",
            ["resident@home.sim", "dinner?", "come home"],
        )
        home.sim.run_for(DAY / 288.0 + 20.0)  # one mail poll + slack
        assert fired(auto, "mail-arrival-notify")
        assert home.lamps["hall"].on
        assert "dinner?" in home.tv_display.messages[-1]

    def test_evening_and_nightly_schedules(self):
        home, auto = build_auto()
        home.invoke_from("jini", "Digital_TV_display", "power_on")
        home.sim.run_for(DAY + 1.0)  # one full day
        assert fired(auto, "evening-lights")
        assert fired(auto, "nightly-shutdown")
        # The 03:00 sweep switched the TV off; dusk switched lamps on after.
        assert not home.tv_display.powered
        assert home.lamps["porch"].on

    def test_degraded_fallback_needs_failures(self):
        sim = Simulator()
        obs = Observability(sim)
        home = build_smart_home(sim=sim, obs=obs)
        home.connect()
        auto = HomeAutomation(home, day=DAY)
        sim.run_until_complete(auto.start())
        home.sim.run_for(30.0)
        assert not fired(auto, "degraded-fallback")  # healthy home: quiet
        resilience = home.island("havi").gateway.resilience
        while resilience.failures < 3:  # real remote faults, not a poked counter
            with pytest.raises(RemoteServiceError):
                home.invoke_from("havi", "Refrigerator", "no_such_operation")
        home.sim.run_for(30.0)
        assert fired(auto, "degraded-fallback")
        assert home.lamps["hall"].on and home.lamps["porch"].on

    def test_stop_disarms(self):
        home, auto = build_auto()
        auto.stop()
        home.motion_sensor.trigger()
        home.sim.run_for(15.0)
        assert not auto.engine.firings
