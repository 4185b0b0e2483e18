"""Benchmark result files never land in the working directory by default:
run from the repo root, that would overwrite the committed ``BENCH_*.json``
baselines ``benchmarks/gate.py`` compares against."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import DEFAULT_OUTPUT_DIR, emit_json


def test_unset_output_dir_writes_outside_the_cwd(tmp_path, monkeypatch):
    monkeypatch.delenv("BENCH_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    path = Path(emit_json("emit-probe", {"n": 1}))
    try:
        assert list(tmp_path.iterdir()) == []
        assert path == DEFAULT_OUTPUT_DIR / "BENCH_emit-probe.json"
        assert json.loads(path.read_text(encoding="utf-8")) == {"n": 1}
    finally:
        path.unlink()


def test_output_dir_names_where_results_go(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path / "results"))
    path = emit_json("emit-probe", {"n": 2})
    assert path == str(tmp_path / "results" / "BENCH_emit-probe.json")
    assert json.loads(Path(path).read_text(encoding="utf-8")) == {"n": 2}
