"""The benchmark gate's rows, checked on loaded result files without
running the benchmarks."""

from __future__ import annotations

import copy
import json
import shutil

import pytest

from benchmarks.gate import ROOT, evaluate, load, main

COMMITTED = ("throughput", "scale", "telemetry")

#: A BENCH_recovery.json shaped like the C13 benchmark's, with a linear
#: replay curve (no committed copy exists: C13 has no relative rows).
RECOVERY = {
    "steady_state": {
        "journaled": {"records_appended": 1454, "checkpoints": 20},
        "bytes_overhead": 0.0,
        "latency_overhead": 0.0,
    },
    "replay": {
        "curve": [
            {"appends": 100, "records_on_medium": 100, "replay_s": 0.001},
            {"appends": 1000, "records_on_medium": 1000, "replay_s": 0.01},
            {"appends": 5000, "records_on_medium": 5000, "replay_s": 0.05},
        ],
        "checkpointed": {
            "appends": 5000, "checkpoint_every": 64, "records_on_medium": 13,
            "replay_s": 0.0002,
        },
    },
}


@pytest.fixture
def committed() -> dict[str, dict]:
    files = load(ROOT)
    assert set(COMMITTED) <= set(files)
    return {name: files[name] for name in COMMITTED}


def failing(current: dict, baseline: dict, source: str) -> list[str]:
    return [row.metric for row in evaluate(current, baseline)
            if row.source == source and not row.ok]


def test_committed_files_pass_against_themselves(committed):
    rows = [row for row in evaluate(committed, committed)
            if row.source in {f"BENCH_{name}.json" for name in COMMITTED}]
    assert any(row.baseline is not None for row in rows)
    assert [row.metric for row in rows if not row.ok] == []
    assert not any(row.improved for row in rows)


def test_throughput_drop_at_64_callers_fails(committed):
    current = copy.deepcopy(committed)
    current["throughput"]["calls"]["64"]["reactor"]["calls_per_sec"] *= 0.85
    assert failing(current, committed, "BENCH_throughput.json") == [
        "C11 reactor calls/s @64"
    ]


def test_broken_wire_pin_fails(committed):
    current = copy.deepcopy(committed)
    current["scale"]["wire_pin"]["identical"] = False
    assert failing(current, committed, "BENCH_scale.json") == [
        "C14 1x1 wire pin identical"
    ]


def test_missing_files_fail(committed):
    rows = {row.metric: row for row in evaluate(committed, {})}
    assert not rows["BENCH_recovery.json written"].ok
    assert not rows["BENCH_throughput.json committed"].ok
    assert rows["C12 bytes overhead"].ok  # absolute rows need no baseline


def test_superlinear_replay_fails(committed):
    current = {**committed, "recovery": copy.deepcopy(RECOVERY)}
    assert failing(current, committed, "BENCH_recovery.json") == []
    current["recovery"]["replay"]["curve"][-1]["replay_s"] = 0.6  # 11x per record
    assert failing(current, committed, "BENCH_recovery.json") == [
        "C13 replay per-record cost spread"
    ]


def test_cli_exits_1_on_a_missing_file_and_names_a_stale_baseline(
    tmp_path, capsys, committed
):
    for name in COMMITTED:
        shutil.copy(ROOT / f"BENCH_{name}.json", tmp_path)
    faster = copy.deepcopy(committed["throughput"])
    faster["calls"]["64"]["reactor"]["calls_per_sec"] *= 1.2
    (tmp_path / "BENCH_throughput.json").write_text(json.dumps(faster))
    assert main(["gate", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "| BENCH_interchange.json written | missing |" in out
    assert "| ok, improved |" in out
    assert "re-record BENCH_throughput.json" in out
