"""Shared helpers for the experiment harness.

Every benchmark regenerates one figure or measurable claim from the paper
(see DESIGN.md's experiment index).  Each prints the rows/series it
reproduces — virtual-time latencies and wire-byte counts from the
simulation — and uses pytest-benchmark to time the scenario itself.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

#: Where :func:`emit_json` writes when ``$BENCH_OUTPUT_DIR`` is unset
#: (gitignored), so a plain run never overwrites the ``BENCH_*.json``
#: baselines committed at the repo root.
DEFAULT_OUTPUT_DIR = Path(__file__).parent / "out"


def report(title: str, rows: list[tuple], headers: tuple[str, ...]) -> None:
    """Print one experiment table (captured into the benchmark log)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print("  " + " | ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def emit_json(name: str, results: dict) -> str:
    """Write ``results`` to ``BENCH_<name>.json`` in ``$BENCH_OUTPUT_DIR``
    (default :data:`DEFAULT_OUTPUT_DIR`) and return the path.  Re-baselining
    the committed files takes an explicit ``BENCH_OUTPUT_DIR=.``."""
    out_dir = Path(os.environ.get("BENCH_OUTPUT_DIR") or DEFAULT_OUTPUT_DIR)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
    return str(path)


def ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}ms"


@pytest.fixture
def bench_once(benchmark):
    """Run a scenario a handful of times under pytest-benchmark (the
    interesting output is the virtual-time data the scenario prints)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=3, iterations=1)

    return run
