"""The firing state machine: dedup, cooldown, conditions, actions, metrics."""

import pytest

from repro.errors import FrameworkError
from repro.rules import dsl
from repro.rules.engine import RuleEngine
from tests.router_views import remote_topics


def x10_on_event(sequence=1, address="A9"):
    return {
        "topic": "x10.ON",
        "payload": {"address": address, "function": "ON", "dims": 0},
        "island": "x10",
        "sequence": sequence,
        "published_at": 0.0,
    }


def lamp_rule(**kwargs):
    builder = (
        dsl.rule(kwargs.pop("name", "lamp-on"))
        .when(dsl.on_event("x10.ON"))
        .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
    )
    cooldown = kwargs.pop("cooldown", 0.0)
    if cooldown:
        builder.cooldown(cooldown)
    return builder.build()


class TestManualFire:
    def test_fire_runs_actions(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule())
        firing = home.sim.run_until_complete(engine.fire("lamp-on"))
        assert firing is not None
        assert firing.actions_ok == 1 and firing.actions_failed == 0
        assert home.lamps["hall"].on
        assert engine.fired_count == 1

    def test_fire_unknown_rule_fails(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        with pytest.raises(FrameworkError):
            home.sim.run_until_complete(engine.fire("ghost"))

    def test_manual_fires_are_not_deduplicated(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule())
        assert home.sim.run_until_complete(engine.fire("lamp-on")) is not None
        assert home.sim.run_until_complete(engine.fire("lamp-on")) is not None
        assert engine.fired_count == 2

    def test_duplicate_rule_name_rejected(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule())
        with pytest.raises(FrameworkError):
            engine.add_rule(lamp_rule())


class TestDedup:
    def test_redelivered_event_fires_once(self, home):
        """The at-least-once interchange may deliver one occurrence twice;
        the (island, sequence) key must collapse them to one firing."""
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule())
        engine._running = True
        engine._on_event(x10_on_event(sequence=7))
        engine._on_event(x10_on_event(sequence=7))  # redelivery
        home.sim.run_for(5.0)
        assert engine.fired_count == 1
        assert engine.suppressed_count == 1

    def test_distinct_occurrences_both_fire(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule())
        engine._running = True
        engine._on_event(x10_on_event(sequence=7))
        engine._on_event(x10_on_event(sequence=8))
        home.sim.run_for(5.0)
        assert engine.fired_count == 2

    def test_suppressed_occurrence_stays_suppressed(self, home):
        """A firing suppressed by cooldown must not fire when the
        interchange redelivers the same occurrence after the window."""
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule(cooldown=2.0))
        engine._running = True
        engine._on_event(x10_on_event(sequence=1))
        home.sim.run_for(1.0)
        engine._on_event(x10_on_event(sequence=2))  # inside cooldown
        home.sim.run_for(5.0)  # cooldown expires
        engine._on_event(x10_on_event(sequence=2))  # redelivery
        home.sim.run_for(5.0)
        assert engine.fired_count == 1
        assert engine.suppressed_count == 2


class TestCooldownAndConditions:
    def test_cooldown_suppresses(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule(cooldown=10.0))
        home.sim.run_until_complete(engine.fire("lamp-on"))
        assert home.sim.run_until_complete(engine.fire("lamp-on")) is None
        home.sim.run_for(11.0)
        assert home.sim.run_until_complete(engine.fire("lamp-on")) is not None

    def test_false_condition_suppresses(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("picky")
            .when(dsl.on_event("x10.ON"))
            .only_if(dsl.payload("address").eq("A1"))
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        firing = home.sim.run_until_complete(
            engine.fire("picky", event=x10_on_event(address="A9"))
        )
        assert firing is None
        assert not home.lamps["hall"].on
        assert engine.suppressed_count == 1

    def test_condition_error_fails_safe(self, home):
        """A condition that cannot be evaluated (missing service) keeps
        the rule quiet instead of crashing the engine."""
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("broken-condition")
            .when(dsl.on_event("x10.ON"))
            .only_if(dsl.service_state("NoSuchService", "read").truthy())
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        firing = home.sim.run_until_complete(engine.fire("broken-condition"))
        assert firing is None
        assert engine.suppressed_count == 1

    def test_cross_island_service_condition(self, home):
        engine = RuleEngine(home.island("x10").gateway)
        engine.add_rule(
            dsl.rule("tuner-gated")
            .when(dsl.on_event("x10.ON"))
            .only_if(dsl.service_state("Digital_TV_tuner", "get_channel").eq(1))
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        assert home.sim.run_until_complete(engine.fire("tuner-gated")) is not None
        home.invoke_from("havi", "Digital_TV_tuner", "set_channel", [5])
        assert home.sim.run_until_complete(engine.fire("tuner-gated")) is None

    def test_vsr_condition(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("has-hall-sensor")
            .when(dsl.on_event("x10.ON"))
            .only_if(dsl.vsr_has(room="hall", x10_kind="lamp"))
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        engine.add_rule(
            dsl.rule("has-basement")
            .when(dsl.on_event("x10.ON"))
            .only_if(dsl.vsr_has(room="basement"))
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        assert home.sim.run_until_complete(engine.fire("has-hall-sensor")) is not None
        assert home.sim.run_until_complete(engine.fire("has-basement")) is None


class TestDarkDirectory:
    """A VSR answer from a directory that did not answer is too short to
    decide on: it is the directory error it stands for."""

    def test_negated_vsr_condition_stays_quiet(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("no-hall-lamp")
            .when(dsl.on_event("x10.ON"))
            .only_if(dsl.negate(dsl.vsr_has(room="hall", x10_kind="lamp")))
            .then(dsl.invoke("X10_A2_porch_lamp", "turn_on"))
            .build()
        )
        home.mm.directory_node.crash()
        firing = home.sim.run_until_complete(engine.fire("no-hall-lamp"))
        assert firing is None
        assert engine.suppressed_count == 1
        assert not home.lamps["porch"].on

    def test_sweep_counts_an_action_failure(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("hall-off")
            .when(dsl.on_event("x10.ON"))
            .then(dsl.sweep("off", room="hall"))
            .build()
        )
        home.mm.directory_node.crash()
        firing = home.sim.run_until_complete(engine.fire("hall-off"))
        assert firing.actions_failed == 1
        assert firing.actions_ok == 0
        assert engine.actions_failed_count == 1


class TestActions:
    def test_action_failure_is_counted_and_best_effort(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("half-broken")
            .when(dsl.on_event("x10.ON"))
            .then(
                dsl.invoke("X10_A1_hall_lamp", "explode"),  # no such op
                dsl.invoke("X10_A2_porch_lamp", "turn_on"),
            )
            .build()
        )
        firing = home.sim.run_until_complete(engine.fire("half-broken"))
        assert firing.actions_failed == 1
        assert firing.actions_ok == 1
        assert home.lamps["porch"].on
        assert engine.actions_failed_count == 1

    def test_publish_action_feeds_other_subscribers(self, home):
        heard = []
        gw = home.island("x10").gateway
        home.sim.run_until_complete(
            gw.subscribe("home.notify", lambda t, p, i: heard.append((t, p)))
        )
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("announce")
            .when(dsl.on_event("x10.ON"))
            .then(dsl.publish("home.notify", kind="test"))
            .build()
        )
        home.sim.run_until_complete(engine.fire("announce"))
        home.sim.run_for(10.0)
        assert heard and heard[0][1]["kind"] == "test"

    def test_event_ref_templating(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("echo-subject")
            .when(dsl.on_event("mail.arrived"))
            .then(dsl.invoke("Digital_TV_display", "show_message", dsl.event("subject")))
            .build()
        )
        event = {
            "topic": "mail.arrived",
            "payload": {"subject": "dinner?"},
            "island": "mail",
            "sequence": 1,
        }
        home.sim.run_until_complete(engine.fire("echo-subject", event=event))
        assert home.tv_display.messages[-1] == "dinner?"


class TestEventSubscription:
    def test_engine_fires_on_published_event(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule())
        home.sim.run_until_complete(engine.start())
        home.motion_sensor.trigger()  # A9 ON on the powerline
        home.sim.run_for(15.0)
        assert engine.fired_count == 1
        assert home.lamps["hall"].on
        [firing] = engine.firings
        assert firing.trigger_kind == "event"
        assert firing.key.startswith("evt:x10:")
        assert firing.latency is not None and firing.latency > 0

    def test_rule_added_while_running_subscribes(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        home.sim.run_until_complete(engine.start())
        engine.add_rule(lamp_rule())
        home.sim.run_for(5.0)  # let the late subscription propagate
        home.motion_sensor.trigger()
        home.sim.run_for(15.0)
        assert engine.fired_count == 1


    def test_start_announces_all_topics_once_per_gateway(self, monkeypatch):
        """Three one-topic rules on a three-island legacy home: start()
        sends each remote gateway one announce carrying every topic, not
        one per topic."""
        from repro.core.framework import MetaMiddleware
        from repro.net.network import Network
        from repro.net.segment import EthernetSegment
        from repro.net.simkernel import Simulator

        sim = Simulator()
        net = Network(sim)
        mm = MetaMiddleware(net, net.create_segment(EthernetSegment, "backbone"))
        a, b, c = (mm.add_island(name, None) for name in "abc")
        sim.run_until_complete(mm.connect())
        protocol = a.gateway.protocol
        announces: list = []
        subscribe_remote = protocol.subscribe_remote

        def record(location, island, topics):
            announces.append(list(topics))
            return subscribe_remote(location, island, topics)

        monkeypatch.setattr(protocol, "subscribe_remote", record)
        engine = RuleEngine(a.gateway)
        for topic in ("t1", "t2", "t3"):
            engine.add_rule(
                dsl.rule(f"on-{topic}").when(dsl.on_event(topic))
                .then(dsl.publish("seen")).build()
            )
        sim.run_until_complete(engine.start())
        assert announces == [["t1", "t2", "t3"], ["t1", "t2", "t3"]]
        for publisher in (b, c):
            assert remote_topics(publisher.gateway.events, "a") == {"t1", "t2", "t3"}
        b.gateway.publish_event("t2", 1)
        c.gateway.publish_event("t3", 2)
        sim.run_for(10.0)
        assert engine.fired_count == 2


class TestSchedules:
    def test_schedule_fires_at_closed_form_instants(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("tick")
            .when(dsl.every(5.0, offset=1.0))
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        home.sim.run_until_complete(engine.start())
        epoch = engine.epoch
        home.sim.run_for(17.0)
        entries = [e for e in engine.schedule_log if e["rule"] == "tick"]
        assert [e["n"] for e in entries] == [0, 1, 2, 3]
        for entry in entries:
            assert entry["due"] == epoch + 1.0 + entry["n"] * 5.0
            assert entry["fired_at"] == entry["due"]

    def test_one_shot_schedule(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("once")
            .when(dsl.after(2.0))
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        home.sim.run_until_complete(engine.start())
        home.sim.run_for(30.0)
        assert len([e for e in engine.schedule_log if e["rule"] == "once"]) == 1

    def test_stop_cancels_schedules(self, home):
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("tick")
            .when(dsl.every(5.0))
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        home.sim.run_until_complete(engine.start())
        home.sim.run_for(7.0)
        fired_before = engine.fired_count
        engine.stop()
        home.sim.run_for(30.0)
        assert engine.fired_count == fired_before


class TestObservability:
    def test_rule_metrics_in_snapshot(self, obs_home):
        home, obs = obs_home
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(lamp_rule(cooldown=60.0))
        home.sim.run_until_complete(engine.fire("lamp-on"))
        home.sim.run_until_complete(engine.fire("lamp-on"))  # cooldown-suppressed
        snapshot = obs.metrics.snapshot()
        assert snapshot["rules.havi.rules_fired"] == 1
        assert snapshot["rules.havi.rules_suppressed"] == 1
        assert snapshot["rules.havi.actions_failed"] == 0
        assert snapshot["rules.havi.rule_latency.count"] == 1

    def test_metric_condition_on_unknown_name_creates_nothing(self, obs_home):
        home, obs = obs_home
        engine = RuleEngine(home.island("havi").gateway)
        engine.add_rule(
            dsl.rule("mistyped")
            .when(dsl.on_event("x10.ON"))
            .only_if(dsl.metric("resilience.havi.falures").ge(1))
            .then(dsl.invoke("X10_A1_hall_lamp", "turn_on"))
            .build()
        )
        before = obs.metrics.snapshot()
        assert home.sim.run_until_complete(engine.fire("mistyped")) is None
        after = obs.metrics.snapshot()
        assert sorted(after) == sorted(before)
        assert after["rules.havi.rules_suppressed"] == 1

    def test_firing_emits_linked_spans(self, obs_home):
        home, obs = obs_home
        engine = RuleEngine(home.island("x10").gateway)
        engine.add_rule(
            dsl.rule("lamp-on")
            .when(dsl.on_event("x10.ON"))
            .then(dsl.invoke("Digital_TV_display", "power_on"))
            .build()
        )
        home.sim.run_until_complete(engine.fire("lamp-on"))
        home.sim.run_for(5.0)
        spans = obs.tracer.spans
        fire = [s for s in spans if s.name == "rule.fire lamp-on"]
        assert fire, [s.name for s in spans]
        trace_id = fire[0].trace_id
        children = [
            s for s in spans
            if s.trace_id == trace_id and s.name.startswith("vsg.invoke")
        ]
        assert children, "action invocation should join the firing's trace"
