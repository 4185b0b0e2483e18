"""Exporters: metrics snapshots (spans export through
:meth:`repro.obs.trace.Tracer.export_jsonl`).

Everything here produces deterministic output — sorted keys — so
identical simulation runs export byte-identical artifacts (pinned by the
obs test suite and C9).
"""

from __future__ import annotations

import json
from typing import Any


def snapshot_to_json(snapshot: dict[str, Any]) -> str:
    return json.dumps(snapshot, sort_keys=True, indent=2)
