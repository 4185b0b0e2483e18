"""Exporters: JSONL spans and metrics snapshots.

Everything here produces deterministic output — sorted keys, compact
separators, creation order — so identical simulation runs export
byte-identical artifacts (pinned by the obs test suite and C9).
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.obs.trace import Span


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One compact sorted-key JSON object per line, in the given order."""
    return "".join(
        json.dumps(span.to_record(), sort_keys=True, separators=(",", ":")) + "\n"
        for span in spans
    )


def write_spans_jsonl(path: str, spans: Iterable[Span]) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans_to_jsonl(spans))
    return path


def snapshot_to_json(snapshot: dict[str, Any]) -> str:
    return json.dumps(snapshot, sort_keys=True, indent=2)
