"""Exporters: JSONL spans, metrics snapshots, and the TrafficMonitor bridge.

Everything here produces deterministic output — sorted keys, compact
separators, creation order — so identical simulation runs export
byte-identical artifacts (pinned by the obs test suite and C9).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.net.monitor import TrafficMonitor
    from repro.obs.metrics import MetricsRegistry


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


def snapshot_with_traffic(
    metrics: "MetricsRegistry",
    monitors: "TrafficMonitor | Iterable[TrafficMonitor]",
) -> dict[str, Any]:
    """Metrics snapshot with TrafficMonitor byte counts folded in.

    Wire-level observations (frames/bytes per protocol, dropped trace
    entries) become ``traffic.<monitor>.<protocol>.frames|bytes`` keys next
    to the call-level metrics, so one snapshot answers both "how many
    calls" and "how many bytes".  Gateway reactors are already in the
    registry as ``reactor.<island>.*``.
    """
    if not isinstance(monitors, Iterable):
        monitors = [monitors]
    snapshot = dict(metrics.snapshot())
    for monitor in monitors:
        prefix = f"traffic.{monitor.name}"
        for protocol, frames, total in monitor.summary_rows():
            snapshot[f"{prefix}.{protocol}.frames"] = frames
            snapshot[f"{prefix}.{protocol}.bytes"] = total
        snapshot[f"{prefix}.total_frames"] = monitor.total_frames
        snapshot[f"{prefix}.total_bytes"] = monitor.total_bytes
        snapshot[f"{prefix}.trace_dropped"] = monitor.trace_dropped
        snapshot[f"{prefix}.frames_coalesced"] = monitor.frames_coalesced
    return {name: snapshot[name] for name in sorted(snapshot)}


def snapshot_to_json(snapshot: dict[str, Any]) -> str:
    return json.dumps(snapshot, sort_keys=True, indent=2)
