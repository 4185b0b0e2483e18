"""Print the experiments' tightest margins as a Markdown table.

Reads ``BENCH_interchange.json`` (C8), ``BENCH_obs.json`` (C9) and
``BENCH_telemetry.json`` (C12) from one directory, as the benchmark run
wrote them, and prints each headline number beside the bound its
benchmark asserts.  It gates nothing; the benchmarks and ``check_*.py``
do.  CI appends the table to the job summary::

    PYTHONPATH=src python -m benchmarks.summary "$RUNNER_TEMP" >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import json
import os
import sys

from benchmarks.check_telemetry import MAX_BYTES_OVERHEAD
from benchmarks.test_c8_interchange_perf import MIN_REDUCTION
from benchmarks.test_c9_obs_overhead import MAX_ENABLED_OVERHEAD


def rows(directory: str) -> list[tuple[str, str, str]]:
    """(metric, value, bound) for every summarised number."""

    def load(name: str) -> dict:
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            return json.load(handle)

    c8 = load("BENCH_interchange.json")["reductions"]
    c9 = load("BENCH_obs.json")
    c12 = load("BENCH_telemetry.json")["overheads"]
    modern_on = c9["paths"]["modern wire, obs on"]["bytes_per_call"]
    modern_off = c9["paths"]["modern wire, obs off"]["bytes_per_call"]
    reduction = f"≥ {MIN_REDUCTION:.1f}×"
    traced = f"≤ {MAX_ENABLED_OVERHEAD:.0%}"
    return [
        ("C8 bytes reduction", f"{c8['bytes_reduction']:.2f}×", reduction),
        ("C8 latency reduction", f"{c8['latency_reduction']:.2f}×", reduction),
        ("C9 legacy bytes overhead", f"{c9['overheads']['bytes_overhead']:.2%}", traced),
        ("C9 legacy latency overhead", f"{c9['overheads']['latency_overhead']:.2%}", traced),
        ("C9 modern bytes overhead", f"{modern_on / modern_off - 1:.2%}", traced),
        ("C12 bytes overhead", f"{c12['bytes_overhead']:.3%}", f"< {MAX_BYTES_OVERHEAD:.0%}"),
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    print("### Experiment margins")
    print("| metric | value | bound |")
    print("|---|---|---|")
    for metric, value, bound in rows(argv[1]):
        print(f"| {metric} | {value} | {bound} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
