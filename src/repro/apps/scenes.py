"""Scene control — context-aware service integration.

The paper defines service integration as "making a new service from more
than one service cooperating with each other" (Section 2) and gives the
VSR "service contexts" for exactly this kind of selection (Section 3.3).
A scene is that new service: one command fans out to every matching
device, regardless of which middleware each lives on.

``SceneController.room_off("living")`` finds every service whose VSR
context says ``room=living`` and applies its natural "off" operation —
``power_off`` on the HAVi TV, ``turn_off`` on X10 modules, ``stop`` on the
Jini Laserdisc — through the ordinary neutral call path.

Since the automation engine landed, a scene is just a one-action rule
(:class:`~repro.rules.actions.ContextSweepAction`) fired by hand; this
controller keeps its original synchronous API as a thin shim over a
:class:`~repro.rules.engine.RuleEngine`.  Each scene rule also carries a
``scene.<name>`` event trigger, so starting the engine lets any island
fire scenes by publishing that event.
"""

from __future__ import annotations

from repro.apps.home import SmartHome
from repro.rules.actions import SWEEP_PRESETS
from repro.rules.engine import Firing, RuleEngine
from repro.rules import dsl

#: Preference order of "switch it off" operations.
OFF_OPERATIONS = SWEEP_PRESETS["off"]
#: Preference order of "switch it on" operations.
ON_OPERATIONS = SWEEP_PRESETS["on"]


class SceneController:
    """Fans one command out across middleware by VSR context."""

    def __init__(self, home: SmartHome, from_island: str | None = None) -> None:
        self.home = home
        island_name = from_island or next(iter(home.islands))
        self.gateway = home.island(island_name).gateway
        self.engine = RuleEngine(self.gateway, label=f"scenes-{island_name}")
        self.actions_log: list[tuple[str, str, str]] = []

    # -- scenes ------------------------------------------------------------

    def room_off(self, room: str) -> int:
        """Switch off everything in ``room``; returns devices commanded."""
        return self._apply({"room": room}, OFF_OPERATIONS)

    def room_on(self, room: str) -> int:
        return self._apply({"room": room}, ON_OPERATIONS)

    def all_off(self) -> int:
        """'Leaving home': off everything that has an off operation."""
        return self._apply({}, OFF_OPERATIONS)

    def middleware_off(self, middleware: str) -> int:
        """Maintenance scene: silence one middleware's devices."""
        return self._apply({"middleware": middleware}, OFF_OPERATIONS)

    # -- plumbing ------------------------------------------------------------

    def _apply(self, context: dict[str, str], candidates: tuple[str, ...]) -> int:
        firing = self.home.sim.run_until_complete(
            self.engine.fire(self._rule_for(context, candidates))
        )
        return self._log_firing(firing)

    def _rule_for(self, context: dict[str, str], candidates: tuple[str, ...]) -> str:
        """Materialize (once) the scene as a rule; returns its name."""
        selector = ",".join(f"{k}={v}" for k, v in sorted(context.items())) or "*"
        name = f"scene:{selector}:{candidates[0]}"
        if not any(r.name == name for r in self.engine.rules):
            self.engine.add_rule(
                dsl.rule(name)
                .when(dsl.on_event(f"scene.{name}"))
                .then(dsl.sweep(candidates, **context))
                .build()
            )
        return name

    def _log_firing(self, firing: Firing | None) -> int:
        """Fold sweep results into the flat actions log; returns count."""
        commanded = 0
        if firing is None:
            return commanded
        for result in firing.results:
            if not (isinstance(result, dict) and result.get("kind") == "sweep"):
                continue
            for invocation in result["invocations"]:
                self.actions_log.append(
                    (
                        invocation["service"],
                        invocation["operation"],
                        invocation["island"],
                    )
                )
                commanded += 1
        return commanded
