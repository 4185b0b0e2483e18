"""Deterministic simulation-testing harness (FoundationDB-style).

One integer seed fully determines a run: the topology (``TopologyGen``),
the workload script (``WorkloadGen``), and the fault schedule
(``FaultPlanGen``) are all pure data derived from the seed before the
simulation starts, drawn the way the seed's band (``bands.BANDS``)
says.  ``runner.check`` replays the scripts against a fresh world and
evaluates system-wide invariants (``oracles.InvariantSuite``);
``shrink.shrink_failure`` minimises a failing script to a small repro.

Reproduce any failure with::

    PYTHONPATH=src python -m repro.testkit --seed <seed> --shrink
"""

from repro.testkit.topology import IslandSpec, TopologyGen, TopologySpec, World, build_world
from repro.testkit.bands import BANDS, Band, band_for
from repro.testkit.workload import WorkloadGen, WorkloadOp, WorkloadRunner
from repro.testkit.oracles import InvariantSuite, Violation
from repro.testkit.runner import FaultPlanGen, RunResult, check, generate, replay, sweep
from repro.testkit.shrink import ShrinkResult, shrink_failure

__all__ = [
    "BANDS",
    "Band",
    "FaultPlanGen",
    "InvariantSuite",
    "IslandSpec",
    "RunResult",
    "ShrinkResult",
    "TopologyGen",
    "TopologySpec",
    "Violation",
    "WorkloadGen",
    "WorkloadOp",
    "WorkloadRunner",
    "World",
    "band_for",
    "build_world",
    "check",
    "generate",
    "replay",
    "shrink_failure",
    "sweep",
]
