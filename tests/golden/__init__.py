"""Golden wire traces the wire pins compare against.

Three frozen corpora, each a JSON file of backbone ``TraceEntry`` lists
keyed by scenario:

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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

from repro.net.monitor import TraceEntry

GOLDEN_DIR = Path(__file__).parent
FIELDS = ["time", "segment", "protocol", "src", "dst", "size", "dropped", "note"]
CORPORA = ("vsr", "legacy", "modern")


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
