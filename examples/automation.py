#!/usr/bin/env python3
"""Declarative home automation — trigger→condition→action rules.

The paper connects middleware so that "new services" can span islands;
``repro.rules`` makes those services declarative.  This demo arms the six
canned scenarios (``repro.apps.automation``) over the bridged home and
runs one compressed day: motion on the X10 powerline routes the DV camera
to the HAVi TV, arriving mail flashes a lamp and posts the subject on
screen, dusk and 03:00 schedules sweep the house — every action riding
the ordinary neutral call path with per-rule dedup and cooldowns.

Run:  python examples/automation.py
"""

from repro.apps import HomeAutomation, build_smart_home
from repro.rules import dsl

DAY = 600.0  # one simulated day compressed into 10 virtual minutes


def clock_at(now: float, day: float) -> str:
    return f"{now / day * 24:05.2f}h"


def main() -> None:
    home = build_smart_home()
    home.connect()
    auto = HomeAutomation(home, day=DAY)
    home.sim.run_until_complete(auto.start())

    print("the armed rule set (canonical JSON round-trips):")
    for rule in auto.engine.rules:
        print(f"  {rule.name:<22} {rule.description}")
    assert dsl.loads(dsl.dumps(list(auto.engine.rules))) == list(auto.engine.rules)

    print("\n07:12 — someone walks through the hall (X10 motion)...")
    home.sim.run_for(DAY * 0.3)
    home.motion_sensor.trigger()
    home.sim.run_for(10.0)

    print("09:00 — mail arrives over the internet island...")
    home.invoke_from(
        "jini", "InternetMail", "send",
        ["resident@home.sim", "package delivered", "at the door"],
    )
    home.sim.run_for(DAY / 288.0 + 10.0)

    print("...then the schedules take the house through dusk and night.")
    home.sim.run_for(DAY)
    auto.stop()

    print(f"\nwhat fired (virtual clock, {DAY:g}s day):")
    for firing in auto.engine.firings:
        latency = f"{firing.latency * 1000:.1f}ms" if firing.latency else "-"
        print(
            f"  {clock_at(firing.fired_at, DAY)}  {firing.rule:<22} "
            f"via {firing.trigger_kind:<8} latency={latency}"
        )
    engine = auto.engine
    print(
        f"\nengine: {engine.fired_count} fired, "
        f"{engine.suppressed_count} suppressed (dedup/cooldown), "
        f"{engine.actions_failed_count} failed actions"
    )
    print(f"TV showing: {home.tv_display.messages}")
    print(f"lamps: hall={home.lamps['hall'].on} porch={home.lamps['porch'].on}")
    print(f"camera recording: {home.camera_vcr.state}")


if __name__ == "__main__":
    main()
