"""Self-tests of the host-cost benchmark.

Run from the repository root:  python -m pytest perfbench -q

Each test shrinks a workload's window so the whole file runs in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import directory_churn  # noqa: E402
import layers  # noqa: E402
import legacy_home  # noqa: E402
import modern_rpc  # noqa: E402
from common import script_bytes  # noqa: E402

#: Workload -> the window (virtual seconds) of its smoke run.
SMOKE_WINDOWS = {modern_rpc: 1.0, legacy_home: 12.0, directory_churn: 1.0}


@pytest.fixture(params=list(SMOKE_WINDOWS), ids=lambda module: module.NAME)
def workload(request, monkeypatch):
    monkeypatch.setattr(request.param, "WINDOW", SMOKE_WINDOWS[request.param])
    return request.param


def episode(workload, script):
    return workload.drive(workload.build(script), script)


def test_same_seed_gives_a_byte_identical_script(workload):
    assert script_bytes(workload.script(7)) == script_bytes(workload.script(7))
    assert script_bytes(workload.script(7)) != script_bytes(workload.script(8))


def test_smoke_run_passes_every_answer_check(workload):
    tally = episode(workload, workload.script(3))
    assert tally.problems == []
    assert tally.errors == 0
    assert tally.completed == tally.attempted > 0
    assert tally.op_latency and tally.event_latency


def test_two_runs_give_identical_virtual_metrics(workload):
    script = workload.script(5)
    first, second = episode(workload, script), episode(workload, script)
    assert first.virtual() == second.virtual()
    assert first.wire_bytes == second.wire_bytes


def test_traced_run_keeps_the_virtual_metrics(workload):
    script = workload.script(11)
    plain = episode(workload, script)
    tracer = layers.LayerTracer().install()
    try:
        tracer.new_world()
        world = workload.build(script)
        tracer.begin()
        traced = workload.drive(world, script)
        raw = tracer.end()
    finally:
        tracer.uninstall()
    assert traced.virtual() == plain.virtual()
    assert raw["counts"]["simkernel.at"] > 0
    assert sum(raw["self_ns"].values()) > 0
    metrics = layers.layer_metrics(layers.merge([raw]), traced.completed)
    assert metrics["segment.frames_per_op"][0] > 0


def test_directory_writes_keep_clear_of_the_writers_own_reads():
    last_read = {}
    for due, client, kind, target, _version in directory_churn.script(125)["ops"]:
        if kind == "read":
            last_read[client, target] = due
        elif kind in ("publish", "withdraw") and (client, target) in last_read:
            assert due - last_read[client, target] >= directory_churn.WRITE_GUARD


def test_uninstall_restores_every_wrapped_attribute():
    from repro.net.simkernel import Simulator
    from repro.soap import envelope

    before = (Simulator.at, envelope.build_request, directory_churn.WsdlDocument.from_xml)
    layers.LayerTracer().install().uninstall()
    assert (Simulator.at, envelope.build_request, directory_churn.WsdlDocument.from_xml) == before


def test_refuses_to_run_without_the_program(tmp_path):
    """Only the benchmark's own files present: exit non-zero, no result."""
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modern_rpc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    for line in result.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
