"""Identical seed => byte-identical run.

This is the property every other testkit promise leans on: a seed printed
by a failing CI job must reproduce the same world, the same workload
outcomes, and the same end-of-run counters on a developer laptop.
"""

from __future__ import annotations

import pytest

from repro.testkit import TopologyGen, WorkloadGen, check
from repro.testkit.runner import FaultPlanGen, generate
from tests.golden import SCRIPT_SEEDS, script_digest, pinned_digests

SEEDS = [1, 7, 23]


@pytest.mark.parametrize("seed", SEEDS)
def test_workload_log_is_byte_identical(seed: int) -> None:
    first = check(seed)
    second = check(seed)
    assert first.workload_json() == second.workload_json()


@pytest.mark.parametrize("seed", SEEDS)
def test_metric_snapshot_is_byte_identical(seed: int) -> None:
    first = check(seed)
    second = check(seed)
    assert first.metrics_json() == second.metrics_json()


def test_scripts_are_pure_data() -> None:
    """Generation never consults the simulation, so regenerating scripts
    must give structurally equal results without building any world."""
    for seed in SEEDS:
        spec_a, ops_a, faults_a = generate(seed)
        spec_b, ops_b, faults_b = generate(seed)
        assert spec_a == spec_b
        assert ops_a == ops_b
        assert faults_a == faults_b


def test_distinct_seeds_give_distinct_worlds() -> None:
    specs = {TopologyGen().generate(seed).describe() for seed in range(10)}
    assert len(specs) > 1, "topology generation ignores the seed"


def test_workload_depends_on_seed_not_object_identity() -> None:
    spec = TopologyGen().generate(5)
    ops_a = WorkloadGen().generate(spec, 40)
    ops_b = WorkloadGen().generate(spec, 40)
    assert ops_a == ops_b
    faults_a = FaultPlanGen().generate(spec, ops_a, 5)
    faults_b = FaultPlanGen().generate(spec, ops_b, 5)
    assert faults_a == faults_b


def test_scripts_match_golden_digests() -> None:
    """Every band seed and the first nightly seeds still generate the
    scripts recorded in tests/golden/testkit.json, byte for byte."""
    golden = pinned_digests("scripts")
    assert sorted(golden) == list(SCRIPT_SEEDS)
    moved = [seed for seed in SCRIPT_SEEDS if script_digest(generate(seed)) != golden[seed]]
    assert moved == [], f"{len(moved)} seeds generate new scripts: {moved[:10]}"
