"""Greedy delta-debugging of failing testkit runs.

Because workload and fault scripts are pure data whose generation never
consults run outcomes, any subset replays meaningfully: ``shrink_failure``
minimises the fault list first (faults usually carry the blame), then the
op list, with a classic ddmin halving schedule, preserving the *original*
violated oracle so the shrink cannot wander onto a different failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.faults.plan import FaultAction
from repro.testkit.runner import RunResult, generate, replay
from repro.testkit.topology import TopologySpec
from repro.testkit.workload import WorkloadOp

T = TypeVar("T")

#: Safety valve: a shrink never replays more than this many candidates.
MAX_REPLAYS = 300


@dataclass
class ShrinkResult:
    seed: int
    oracle: str
    spec: TopologySpec
    ops: list[WorkloadOp]
    faults: list[tuple[float, FaultAction]]
    result: RunResult
    replays: int
    steps: int = 40
    inject_bug: str | None = None

    def render(self) -> str:
        lines = [
            f"=== shrunk repro: seed={self.seed} oracle={self.oracle} "
            f"({self.replays} replays, {len(self.ops)} ops + "
            f"{len(self.faults)} faults survive) ===",
            "",
        ]
        lines.append(self.result.render_repro())
        lines.append("")
        lines.append(f"reproduce: PYTHONPATH=src python -m repro.testkit {self.args()}")
        return "\n".join(lines)

    def args(self) -> str:
        """The ``python -m repro.testkit`` arguments that replay the
        original failure."""
        args = f"--seed {self.seed}"
        if self.steps != 40:
            args += f" --steps {self.steps}"
        if self.inject_bug is not None:
            args += f" --inject-bug {self.inject_bug}"
        return args


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _minimize(
    items: list[T], still_fails: Callable[[list[T]], bool], budget: _Budget
) -> list[T]:
    """ddmin-lite: try dropping halves, then quarters, ... then singles."""
    current = list(items)
    chunk = max(1, len(current) // 2)
    while current:
        shrunk = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if not budget.spend():
                return current
            if still_fails(candidate):
                current = candidate
                shrunk = True  # retry same index: the list shifted left
            else:
                index += chunk
        if chunk > 1:
            chunk //= 2
        elif not shrunk:
            break  # singles reached a fixpoint
    return current


def shrink_failure(
    seed: int, steps: int = 40, inject_bug: str | None = None
) -> ShrinkResult:
    """Minimise the failing scripts for ``seed`` to a small repro."""
    spec, ops, faults = generate(seed, steps)
    base = replay(spec, ops, faults, inject_bug=inject_bug)
    if base.ok:
        raise ValueError(f"seed {seed} is green; nothing to shrink")
    target = base.violations[0].oracle if base.violations else "run-error"
    budget = _Budget(MAX_REPLAYS)

    def fails(
        candidate_ops: list[WorkloadOp],
        candidate_faults: list[tuple[float, FaultAction]],
    ) -> bool:
        run = replay(spec, candidate_ops, candidate_faults, inject_bug=inject_bug)
        if target == "run-error":
            return bool(run.error)
        return any(violation.oracle == target for violation in run.violations)

    small_faults = _minimize(faults, lambda f: fails(ops, f), budget)
    small_ops = _minimize(ops, lambda o: fails(o, small_faults), budget)
    final = replay(spec, small_ops, small_faults, inject_bug=inject_bug)
    return ShrinkResult(
        seed=seed,
        oracle=target,
        spec=spec,
        ops=small_ops,
        faults=small_faults,
        result=final,
        replays=budget.used + 2,  # every probe + the base and final runs
        steps=steps,
        inject_bug=inject_bug,
    )
