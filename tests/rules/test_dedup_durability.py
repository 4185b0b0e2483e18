"""Satellite: rule-engine dedup durability across a cold restart.

The at-least-once interchange may redeliver an event whose first copy
fired a rule *before* a crash and whose duplicate arrives *after* the
restart.  With the dedup window journaled, the recovered engine still
suppresses the duplicate — the rule-dedup oracle (one firing per
``(rule, key)``) must hold over rules-band seeds with a mid-run cold
crash of a rule-hosting gateway.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import NodeCrash
from repro.testkit.runner import generate, replay
from repro.testkit.rules_profile import generate_rules

#: Rules-band seeds; each draws engines on 1-2 host islands.
SEEDS = (200, 201, 203)


def crash_scenario(seed: int):
    spec, ops, _faults = generate(seed)
    hosts = sorted(generate_rules(spec))
    assert hosts, f"seed {seed} drew no rule hosts"
    victim = hosts[0]
    crash_at = max(op.time for op in ops) * 0.5
    faults = [(crash_at, NodeCrash(node=f"gw-{victim}", restart_after=4.0))]
    return spec, ops, faults, victim


@pytest.mark.parametrize("seed", SEEDS)
def test_midrun_crash_of_rule_host_never_double_fires(seed: int):
    spec, ops, faults, victim = crash_scenario(seed)
    result = replay(spec, ops, faults, persist=True)
    assert result.error == ""
    # result.ok includes the rule-dedup oracle: no (rule, key) fired twice,
    # even though the crash wiped the in-memory window mid-run.
    assert result.ok, result.render_repro()

    metrics = result.world.obs.metrics
    assert metrics.value(f"vsg.{victim}.cold_crashes") == 1
    assert metrics.value(f"vsg.{victim}.recoveries") == 1

    # The band is not vacuous: engines fired, and the dedup window made
    # it into the WAL (rseen records fold back into the recovered state).
    assert sum(e.fired_count for e in result.world.rule_engines.values()) > 0
    rseen = [
        record
        for host in result.world.rule_engines
        for record in result.world.journals[host].dump()["records"]
        if record.get("t") == "rseen"
        or (record.get("t") == "ckpt" and record["state"]["rules"])
    ]
    assert rseen, "no dedup state ever reached a rule host's WAL"


def test_crash_run_is_deterministic():
    seed = SEEDS[1]
    spec, ops, faults, _victim = crash_scenario(seed)
    first = replay(spec, ops, faults, persist=True)
    second = replay(spec, ops, faults, persist=True)
    assert first.metrics_json() == second.metrics_json()
    assert first.wal_dumps_json() == second.wal_dumps_json()
