"""Golden pins: wire traces and testkit digests.

Three frozen wire corpora, each a JSON file of backbone ``TraceEntry``
lists keyed by scenario:

- ``vsr_wire.json``: two small homes on the single-directory wire,
  recorded before the single directory became the 1 shard x 1 replica
  federation plane (pinned by ``tests/core/test_vsr_federation.py`` and
  the C14 benchmark);
- ``legacy_wire.json``: the experiment scenarios on the 2002 wire
  (``LEGACY_INTERCHANGE``);
- ``modern_wire.json``: the experiment scenarios on the modern wire
  (``REACTOR_INTERCHANGE``).

The experiment scenarios live in :mod:`tests.golden.scenarios`.  A long
trace is stored as a per-segment digest (frame count, byte total and a
SHA-256 over its rows) instead of frame by frame.  A diff against any of
these files is a wire change to explain in docs/PROTOCOLS.md (or
docs/FEDERATION.md for the directory wire), never a file to refresh.

``testkit.json`` pins :mod:`repro.testkit` the same way, as one SHA-256
per seed: ``scripts`` digests the canonical JSON of ``generate(seed)``
(every dataclass field, frozensets sorted) for every seed in
``SCRIPT_SEEDS``, and ``runs`` digests ``workload_json()`` +
``metrics_json()`` of ``check(seed)`` for the fixed corpus seeds
(``metrics_json()`` holds the registry snapshot, the directory plane's
``federation`` report, the collector's ``telemetry`` fold and the
``spans`` count).  A
changed digest means a seed no longer replays what it did; record once
with ``python -c "from tests.golden import record_testkit;
record_testkit()"`` (``PYTHONPATH=src:.``) only in a change that says
why its seeds moved.

``metrics.json`` pins the one metric model every reader reads: one
SHA-256 per fixed-corpus seed, over the canonical JSON of
``world.obs.metrics.snapshot()`` at the end of ``check(seed)``
(``record_metrics()`` writes it).  Every world owns a registry that
tracks its counts whether observability is on or off, so all 60 seeds
are pinned.  The snapshot holds every metric name and value a telemetry
report can carry, and every count the testkit reads, so a change that
moves where a count is kept must leave it unedited.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import astuple
from pathlib import Path
from typing import Any

from repro.net.monitor import TraceEntry

GOLDEN_DIR = Path(__file__).parent
FIELDS = ["time", "segment", "protocol", "src", "dst", "size", "dropped", "note"]
CORPORA = ("vsr", "legacy", "modern")
TESTKIT_PATH = GOLDEN_DIR / "testkit.json"
METRICS_PATH = GOLDEN_DIR / "metrics.json"
#: Every band's seeds plus the first 200 nightly-sweep seeds.
SCRIPT_SEEDS = tuple(range(700)) + tuple(range(10_000, 10_200))


def _path(corpus: str) -> Path:
    return GOLDEN_DIR / f"{corpus}_wire.json"


def _load(corpus: str) -> dict:
    golden = json.loads(_path(corpus).read_text(encoding="utf-8"))
    assert golden["fields"] == FIELDS
    return golden


def _corpus_of(scenario: str, section: str) -> dict:
    for corpus in CORPORA:
        golden = _load(corpus)
        if scenario in golden.get(section, {}):
            return golden
    raise KeyError(f"no golden {section} entry for {scenario!r}")


def wire_trace(scenario: str) -> list[TraceEntry]:
    """The recorded backbone trace of ``scenario``."""
    rows = _corpus_of(scenario, "scenarios")["scenarios"][scenario]
    return [TraceEntry(**dict(zip(FIELDS, row))) for row in rows]


def wire_digest(scenario: str) -> dict[str, dict]:
    """The recorded per-segment digest of ``scenario``."""
    return _corpus_of(scenario, "digests")["digests"][scenario]


def digest(trace: list[TraceEntry]) -> dict[str, dict]:
    """Per segment: frame count, byte total and a SHA-256 of the rows."""
    by_segment: dict[str, list[list]] = {}
    for entry in trace:
        by_segment.setdefault(entry.segment, []).append(list(astuple(entry)))
    return {
        segment: {
            "frames": len(rows),
            "bytes": sum(row[5] for row in rows),
            "sha256": hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest(),
        }
        for segment, rows in sorted(by_segment.items())
    }


def record(corpus: str, scenario: str, trace: list[TraceEntry], digested: bool) -> None:
    """Write ``scenario``'s trace (or its digest) into ``corpus``'s file."""
    path = _path(corpus)
    golden = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"fields": FIELDS, "scenarios": {}, "digests": {}}
    )
    section, other = ("digests", "scenarios") if digested else ("scenarios", "digests")
    golden[other].pop(scenario, None)
    golden[section][scenario] = (
        digest(trace) if digested else [list(astuple(entry)) for entry in trace]
    )
    for key in ("scenarios", "digests"):
        golden[key] = dict(sorted(golden[key].items()))
    path.write_text(_dump(golden), encoding="utf-8")


def _dump(golden: dict) -> str:
    """One row per line, so a diff shows the frames that moved."""
    lines = ["{", f' "fields": {json.dumps(golden["fields"])},', ' "scenarios": {']
    scenarios = list(golden["scenarios"].items())
    for index, (name, rows) in enumerate(scenarios):
        lines.append(f"  {json.dumps(name)}: [")
        lines.append(",\n".join(f"   {json.dumps(row)}" for row in rows))
        lines.append("  ]" + ("," if index < len(scenarios) - 1 else ""))
    lines.append(" },")
    lines.append(f' "digests": {json.dumps(golden["digests"], indent=1, sort_keys=True)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _canonical(value: Any) -> Any:
    """JSON-ready form of a testkit script: dataclasses by type name and
    every field, tuples as lists, frozensets sorted."""
    if dataclasses.is_dataclass(value):
        return {
            "type": type(value).__name__,
            **{
                field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, (frozenset, set)):
        return sorted((_canonical(item) for item in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def script_digest(scripts: tuple) -> str:
    """SHA-256 of ``generate(seed)``'s ``(spec, ops, faults)``."""
    return _sha256(json.dumps(_canonical(scripts), sort_keys=True))


def run_digest(result: Any) -> str:
    """SHA-256 of a run's workload log and end-of-run metrics."""
    return _sha256(result.workload_json() + "\n" + result.metrics_json())


def pinned_digests(section: str) -> dict[int, str]:
    """The recorded ``scripts`` or ``runs`` digests, keyed by seed."""
    golden = json.loads(TESTKIT_PATH.read_text(encoding="utf-8"))
    return {int(seed): value for seed, value in golden[section].items()}


def record_testkit() -> None:
    """Write ``testkit.json`` from the current code (slow: replays the
    whole fixed corpus)."""
    from repro.testkit import check, generate
    from tests.testkit.test_corpus import CORPUS

    golden = {
        "scripts": {str(seed): script_digest(generate(seed)) for seed in SCRIPT_SEEDS},
        "runs": {str(seed): run_digest(check(seed)) for seed in CORPUS},
    }
    TESTKIT_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


def metrics_digest(result: Any) -> str:
    """SHA-256 of a run's end-of-run metrics registry snapshot."""
    snapshot = result.world.obs.metrics.snapshot()
    return _sha256(json.dumps(snapshot, sort_keys=True, separators=(",", ":")))


def pinned_metrics() -> dict[int, str]:
    """The recorded metrics digests, keyed by seed."""
    golden = json.loads(METRICS_PATH.read_text(encoding="utf-8"))
    return {int(seed): value for seed, value in golden.items()}


def record_metrics() -> None:
    """Write ``metrics.json`` from the current code (slow: replays the
    whole fixed corpus)."""
    from repro.testkit import check
    from tests.testkit.test_corpus import CORPUS

    golden = {str(seed): metrics_digest(check(seed)) for seed in CORPUS}
    METRICS_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
