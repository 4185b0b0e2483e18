#!/usr/bin/env python3
"""Gate scale-benchmark regressions against the committed baseline.

CI runs the C14 benchmark (which emits ``BENCH_scale.json``) and then
this script::

    python benchmarks/check_scale.py <current.json> [baseline.json]

The baseline defaults to the ``BENCH_scale.json`` committed at the repo
root.  The build fails when:

- any tracked p99 ``find_by_name`` latency at 10k islands (1, 4 or 16
  shards) climbs more than ``TOLERANCE`` above the baseline,
- any tracked convergence time at 10k islands climbs likewise,
- the 1-shard-vs-16-shard p99 speedup headline at 10k islands drops
  below ``MIN_SPEEDUP`` or more than ``TOLERANCE`` below the baseline,
- the trivial 1x1 plane stopped being byte-identical to the golden
  single-directory wire (``tests/golden/vsr_wire.json``).

The simulation is deterministic, so honest runs reproduce the baseline
exactly; the tolerance only absorbs intentional re-baselining noise (a
changed wire format legitimately shifts round trips a little).  When a
latency *improves* past the tolerance the script says so — refresh the
committed ``BENCH_scale.json`` in the same PR so the gate keeps teeth.
"""

from __future__ import annotations

import json
import os
import sys

TOLERANCE = 0.10
MIN_SPEEDUP = 4.0
GATED_ISLANDS = 10_000


def _tracked(results: dict) -> dict[str, float]:
    """name -> (value, lower_is_better) flattened from one results dict."""
    metrics: dict[str, float] = {}
    for cell in results["lookup"]:
        if cell["islands"] == GATED_ISLANDS:
            metrics[f"p99 find_by_name @10k, {cell['shards']} shard(s)"] = cell[
                "p99_s"
            ]
    for cell in results["convergence"]:
        if cell["islands"] == GATED_ISLANDS:
            metrics[f"convergence @10k, {cell['shards']} shard(s)"] = cell[
                "converged_s"
            ]
    return metrics


def main(argv: list[str]) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__)
        return 2
    current_path = argv[1]
    baseline_path = (
        argv[2]
        if len(argv) == 3
        else os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_scale.json",
        )
    )
    with open(current_path, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)

    failures, improvements = [], []

    if not current.get("wire_pin", {}).get("identical", False):
        failures.append(
            "wire pin: the 1x1 federation no longer matches the golden "
            "single-directory wire frame-for-frame"
        )

    speedup = current.get("speedup_at_10k", 0.0)
    base_speedup = baseline.get("speedup_at_10k", 0.0)
    print(f"speedup @10k islands: {base_speedup:.1f}x -> {speedup:.1f}x")
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"speedup @10k islands: {speedup:.1f}x < required {MIN_SPEEDUP:.0f}x"
        )
    elif base_speedup and speedup < base_speedup * (1.0 - TOLERANCE):
        failures.append(
            f"speedup @10k islands regressed: {base_speedup:.1f}x -> {speedup:.1f}x"
        )

    now_metrics = _tracked(current)
    for name, base in _tracked(baseline).items():
        now = now_metrics.get(name)
        if now is None:
            failures.append(f"{name}: missing from {current_path}")
            continue
        ratio = now / base if base else 1.0
        line = f"{name}: {base:.4f}s -> {now:.4f}s ({ratio:.2%} of baseline)"
        print(line)
        if ratio > 1.0 + TOLERANCE:  # latency: higher is a regression
            failures.append(line)
        elif ratio < 1.0 - TOLERANCE:
            improvements.append(line)

    if improvements:
        print(
            f"\nimproved >{TOLERANCE:.0%} past baseline — refresh the "
            "committed BENCH_scale.json to keep the gate tight:"
        )
        for line in improvements:
            print(f"  {line}")
    if failures:
        print(f"\nFAIL: scale benchmark regressed >{TOLERANCE:.0%}:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("\nOK: no tracked metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
