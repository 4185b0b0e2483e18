"""Gate every benchmark result file in one table.

Run after the benchmarks have written their ``BENCH_*.json`` files into
one directory::

    BENCH_OUTPUT_DIR=<dir> PYTHONPATH=src python -m pytest benchmarks -q --benchmark-disable
    PYTHONPATH=src python -m benchmarks.gate <dir>

Each row is one number read from one file, the side that is ``better``
(``higher``, ``lower`` or ``equal``) and a bound, the shape of
``BENCHMARK.json``'s metrics.  A bound is one of two kinds:

- **absolute** -- the constant the benchmark module asserts, imported,
  so every threshold has one home;
- **relative** -- within ``TOLERANCE`` of the same number in the
  ``BENCH_<name>.json`` committed at the repo root.  That file is the
  only baseline: a change that moves a relative row on purpose
  re-records it by running its benchmark with ``BENCH_OUTPUT_DIR=.``
  from the repo root (unset, the benchmarks write to the gitignored
  ``benchmarks/out/`` and leave the baselines alone).

The simulation is deterministic, so an honest run reproduces the
committed numbers exactly; the tolerance only absorbs intentional
re-baselining.  A relative row that improves past the tolerance passes
but is named under the table, because a stale baseline lets a later
regression of the same size through.

The gate prints a Markdown table and exits 1 on any failing row or
missing file.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from benchmarks.test_c8_interchange_perf import MIN_REDUCTION
from benchmarks.test_c9_obs_overhead import MAX_ENABLED_OVERHEAD
from benchmarks.test_c11_throughput import MIN_EVENT_RATIO, MIN_SPEEDUP_AT_64
from benchmarks.test_c12_telemetry import MAX_BYTES_OVERHEAD, REPORTING_ISLANDS
from benchmarks.test_c13_recovery import MAX_PER_RECORD_RATIO, MAX_STEADY_OVERHEAD
from benchmarks.test_c14_scale import MIN_SPEEDUP_AT_10K

TOLERANCE = 0.10
ROOT = Path(__file__).resolve().parent.parent
#: Scale cells gated against the baseline: the neighborhood-size grid row.
GATED_ISLANDS = 10_000

FORMATS = {"%": "{:.3%}", "x": "{:.2f}×", "s": "{:.4g} s", "/s": "{:.1f}/s", "": "{}"}
SIGNS = {("higher", False): "≥", ("higher", True): ">",
         ("lower", False): "≤", ("lower", True): "<", ("equal", False): "="}


@dataclasses.dataclass(frozen=True)
class Row:
    """``value`` must sit on the ``better`` side of ``limit`` (strictly
    when ``strict``); a relative row carries its committed ``baseline``."""

    metric: str
    value: float | None  # None: the file holding it is missing
    better: str
    limit: float
    unit: str = ""
    strict: bool = False
    baseline: float | None = None
    source: str = ""

    @property
    def ok(self) -> bool:
        if self.value is None:
            return False
        if self.better == "equal":
            return self.value == self.limit
        if self.value == self.limit:
            return not self.strict
        return (self.value > self.limit) == (self.better == "higher")

    @property
    def improved(self) -> bool:
        """Better than the committed baseline by more than the tolerance."""
        if self.baseline is None or self.value is None:
            return False
        if self.better == "higher":
            return self.value > self.baseline * (1.0 + TOLERANCE)
        return self.value < self.baseline * (1.0 - TOLERANCE)

    def cells(self) -> tuple[str, ...]:
        show = FORMATS[self.unit].format
        bound = f"{SIGNS[self.better, self.strict]} {show(self.limit)}"
        if self.baseline is not None:
            bound += f" ({'-' if self.better == 'higher' else '+'}{TOLERANCE:.0%})"
        verdict = "FAIL" if not self.ok else "ok, improved" if self.improved else "ok"
        return (
            self.metric,
            "missing" if self.value is None else show(self.value),
            "" if self.baseline is None else show(self.baseline),
            bound,
            verdict,
        )


def relative(metric: str, value: float, base: float, better: str, unit: str) -> Row:
    """A row bounded at ``TOLERANCE`` worse than its committed value."""
    factor = 1.0 - TOLERANCE if better == "higher" else 1.0 + TOLERANCE
    return Row(metric, value, better, base * factor, unit, baseline=base)


def c8_rows(c8: dict, _base: dict | None) -> list[Row]:
    reductions = c8["reductions"]
    return [
        Row(f"C8 {key} reduction", reductions[f"{key}_reduction"], "higher", MIN_REDUCTION, "x")
        for key in ("bytes", "latency")
    ]


def c9_rows(c9: dict, _base: dict | None) -> list[Row]:
    modern_on = c9["paths"]["modern wire, obs on"]["bytes_per_call"]
    modern_off = c9["paths"]["modern wire, obs off"]["bytes_per_call"]
    return [
        Row(f"C9 legacy {key} overhead", c9["overheads"][f"{key}_overhead"], "lower",
            MAX_ENABLED_OVERHEAD, "%")
        for key in ("bytes", "latency")
    ] + [Row("C9 modern bytes overhead", modern_on / modern_off - 1.0, "lower",
             MAX_ENABLED_OVERHEAD, "%")]


def c11_rows(c11: dict, base: dict) -> list[Row]:
    rows = [
        relative(f"C11 reactor calls/s @{callers}",
                 c11["calls"].get(callers, {}).get("reactor", {}).get("calls_per_sec"),
                 cell["reactor"]["calls_per_sec"], "higher", "/s")
        for callers, cell in sorted(base["calls"].items(), key=lambda kv: int(kv[0]))
    ]
    return rows + [
        relative("C11 reactor events/s", c11["events"]["reactor"]["events_per_sec"],
                 base["events"]["reactor"]["events_per_sec"], "higher", "/s"),
        relative("C11 speedup @64", c11["speedup_at_64"], base["speedup_at_64"], "higher", "x"),
        Row("C11 speedup @64", c11["speedup_at_64"], "higher", MIN_SPEEDUP_AT_64, "x"),
        Row("C11 event ratio vs depth 1", c11["event_ratio_vs_depth1"], "higher",
            MIN_EVENT_RATIO, "x"),
    ]


def c12_rows(c12: dict, _base: dict | None) -> list[Row]:
    paths, overhead = c12["paths"], c12["overheads"]["bytes_overhead"]
    enabled = paths["enabled"]
    return [
        Row(f"C12 disabled {key}", paths["disabled"][key], "equal", paths["baseline"][key])
        for key in ("bytes", "frames")
    ] + [
        Row("C12 bytes overhead", overhead, "higher", 0.0, "%", strict=True),
        Row("C12 bytes overhead", overhead, "lower", MAX_BYTES_OVERHEAD, "%", strict=True),
        Row("C12 islands reporting", enabled.get("islands_reporting", 0), "higher",
            REPORTING_ISLANDS),
        Row("C12 reports merged", enabled.get("reports_merged", 0), "higher", 0, strict=True),
    ]


def c13_rows(c13: dict, _base: dict | None) -> list[Row]:
    steady, curve = c13["steady_state"], c13["replay"]["curve"]
    checkpointed = c13["replay"]["checkpointed"]
    per_record = [point["replay_s"] / point["records_on_medium"] for point in curve]
    return [
        Row("C13 records appended", steady["journaled"]["records_appended"], "higher", 0,
            strict=True),
    ] + [
        Row(f"C13 {key} overhead", steady[f"{key}_overhead"], "lower", MAX_STEADY_OVERHEAD,
            "%", strict=True)
        for key in ("bytes", "latency")
    ] + [
        Row("C13 replay curve points", len(curve), "higher", 2),
        Row("C13 replay per-record cost spread", max(per_record) / min(per_record), "lower",
            MAX_PER_RECORD_RATIO, "x"),
        Row("C13 checkpointed records on medium", checkpointed["records_on_medium"], "lower",
            checkpointed["checkpoint_every"]),
        Row("C13 checkpointed replay vs longest log", checkpointed["replay_s"], "lower",
            curve[-1]["replay_s"], "s", strict=True),
    ]


def c14_rows(c14: dict, base: dict) -> list[Row]:
    rows = [
        Row("C14 1x1 wire pin identical", c14["wire_pin"]["identical"], "equal", True),
        Row("C14 speedup @10k", c14["speedup_at_10k"], "higher", MIN_SPEEDUP_AT_10K, "x"),
        relative("C14 speedup @10k", c14["speedup_at_10k"], base["speedup_at_10k"], "higher", "x"),
    ]
    for grid, key, label in (("lookup", "p99_s", "p99 find_by_name"),
                             ("convergence", "converged_s", "convergence")):
        now = {cell["shards"]: cell[key] for cell in c14[grid] if cell["islands"] == GATED_ISLANDS}
        rows += [
            relative(f"C14 {label} @10k, {cell['shards']} shard(s)", now.get(cell["shards"]),
                     cell[key], "lower", "s")
            for cell in base[grid] if cell["islands"] == GATED_ISLANDS
        ]
    return rows


#: ``BENCH_<name>.json`` -> its rows, and whether they need the committed copy.
CHECKS = {
    "interchange": (c8_rows, False),
    "obs": (c9_rows, False),
    "throughput": (c11_rows, True),
    "telemetry": (c12_rows, False),
    "recovery": (c13_rows, False),
    "scale": (c14_rows, True),
}


def evaluate(current: dict[str, dict], baseline: dict[str, dict]) -> list[Row]:
    """Every gate row, from loaded result files keyed by ``<name>`` of
    ``BENCH_<name>.json``: ``current`` from the run, ``baseline`` the
    committed copies.  A missing file is one failing row."""
    rows = []
    for name, (check, needs_baseline) in CHECKS.items():
        source = f"BENCH_{name}.json"
        if name not in current:
            rows.append(Row(f"{source} written", None, "equal", True, source=source))
        elif needs_baseline and name not in baseline:
            rows.append(Row(f"{source} committed", None, "equal", True, source=source))
        else:
            rows += [dataclasses.replace(row, source=source)
                     for row in check(current[name], baseline.get(name))]
    return rows


def load(directory: Path) -> dict[str, dict]:
    return {
        path.stem.removeprefix("BENCH_"): json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("BENCH_*.json"))
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = evaluate(load(Path(argv[1])), load(ROOT))
    print("### Benchmark gate")
    print("| metric | value | baseline | bound | verdict |")
    print("|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row.cells()) + " |")
    stale = sorted({row.source for row in rows if row.ok and row.improved})
    if stale:
        print(f"\nImproved more than {TOLERANCE:.0%} past the committed baseline: "
              f"re-record {', '.join(stale)} at the repo root to keep the gate tight.")
    failed = sum(not row.ok for row in rows)
    print(f"\n{'FAIL' if failed else 'OK'}: {failed} of {len(rows)} rows failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
