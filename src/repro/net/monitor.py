"""Traffic accounting for benchmarks.

A :class:`TrafficMonitor` attaches to one or more segments and tallies
frames and bytes per protocol tag.  The payload-size (C1) and stack-weight
(C4) experiments read these counters; the Figure-4 trace benchmark uses the
optional frame trace.

Reset contract: :meth:`TrafficMonitor.reset` returns the monitor to its
just-constructed state — every accumulator (``stats``, ``per_segment``,
``trace``, ``trace_dropped``, ``frames_coalesced``,
``coalesced_extra_per_segment``, ``coalesced_dropped_extra_per_segment``)
is cleared while configuration
(``name``, ``trace_enabled``, ``trace_limit``, watched segments) is kept.
Any new accumulating field added to this class MUST also be cleared there;
the regression tests compare a reset monitor against a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.frames import Frame
    from repro.net.segment import Segment


@dataclass
class TraceEntry:
    """One recorded transmission."""

    time: float
    segment: str
    protocol: str
    src: str
    dst: str
    size: int
    dropped: bool
    note: str = ""


@dataclass
class ProtocolStats:
    """Frame/byte tallies for one protocol tag."""

    frames: int = 0
    bytes: int = 0
    dropped_frames: int = 0


@dataclass
class TrafficMonitor:
    """Counts traffic on the segments it watches."""

    name: str = "monitor"
    trace_enabled: bool = False
    trace_limit: int = 10000
    stats: dict[str, ProtocolStats] = field(default_factory=dict)
    per_segment: dict[str, dict[str, ProtocolStats]] = field(default_factory=dict)
    trace: list[TraceEntry] = field(default_factory=list)
    #: Trace entries discarded because ``trace`` already held
    #: ``trace_limit`` entries.  Non-zero means the trace is incomplete —
    #: a truncated Figure-4 trace used to look exactly like a short run.
    trace_dropped: int = 0
    #: Constituent frames that travelled inside vectored transmissions
    #: (``Frame.parts``).  Their frames/bytes are tallied under their own
    #: protocol tags exactly as if sent un-coalesced; this counter is the
    #: only trace that coalescing happened.  Surfaced in the obs snapshot.
    frames_coalesced: int = 0
    #: Per segment: how many *extra* frames the constituent tallies hold
    #: relative to actual wire transmissions (``len(parts) - 1`` per
    #: vectored frame).  The conservation oracle subtracts this before
    #: comparing monitor frame counts against ``Segment.frames_sent``.
    coalesced_extra_per_segment: dict[str, int] = field(default_factory=dict)
    #: Same reconciliation for drops: a lost vectored transmission is one
    #: wire-level drop but ``len(parts)`` dropped constituents in the
    #: per-protocol tallies.
    coalesced_dropped_extra_per_segment: dict[str, int] = field(default_factory=dict)
    #: Configuration, not an accumulator (``reset`` keeps it): callbacks
    #: ``(segment_name, protocol, size, dropped)`` invoked for every
    #: recorded transmission — the flight recorder's wire-level feed.
    frame_listeners: list = field(default_factory=list)

    def watch(self, *segments: "Segment") -> "TrafficMonitor":
        for segment in segments:
            if self not in segment.monitors:
                segment.monitors.append(self)
        return self

    def unwatch(self, segment: "Segment") -> None:
        if self in segment.monitors:
            segment.monitors.remove(self)

    def record(self, segment: "Segment", frame: "Frame", size: int, dropped: bool) -> None:
        if frame.parts is not None:
            self._record_vectored(segment, frame, size, dropped)
            return
        stats = self.stats.setdefault(frame.protocol, ProtocolStats())
        seg_stats = self.per_segment.setdefault(segment.name, {}).setdefault(
            frame.protocol, ProtocolStats()
        )
        for bucket in (stats, seg_stats):
            bucket.frames += 1
            bucket.bytes += size
            if dropped:
                bucket.dropped_frames += 1
        if self.frame_listeners:
            for listener in self.frame_listeners:
                listener(segment.name, frame.protocol, size, dropped)
        if self.trace_enabled:
            if len(self.trace) < self.trace_limit:
                self.trace.append(
                    TraceEntry(
                        time=segment.sim.now,
                        segment=segment.name,
                        protocol=frame.protocol,
                        src=str(frame.src),
                        dst=str(frame.dst),
                        size=size,
                        dropped=dropped,
                        note=frame.note,
                    )
                )
            else:
                self.trace_dropped += 1

    def _record_vectored(
        self, segment: "Segment", frame: "Frame", size: int, dropped: bool
    ) -> None:
        """Account a vectored transmission by its constituents.

        Conservation rule: each constituent is tallied under its own
        protocol tag with the size it would have had un-coalesced
        (``payload_len + segment.header_overhead``), so per-protocol
        frame and byte counters are identical whether or not the reactor
        merged the frames.  The trace records the transmission as it
        actually happened on the wire (one vectored frame).
        """
        self.frames_coalesced += len(frame.parts)
        extra = len(frame.parts) - 1
        self.coalesced_extra_per_segment[segment.name] = (
            self.coalesced_extra_per_segment.get(segment.name, 0) + extra
        )
        if dropped:
            self.coalesced_dropped_extra_per_segment[segment.name] = (
                self.coalesced_dropped_extra_per_segment.get(segment.name, 0) + extra
            )
        overhead = segment.header_overhead
        seg_table = self.per_segment.setdefault(segment.name, {})
        for protocol, payload_len in frame.parts:
            stats = self.stats.setdefault(protocol, ProtocolStats())
            seg_stats = seg_table.setdefault(protocol, ProtocolStats())
            part_size = payload_len + overhead
            for bucket in (stats, seg_stats):
                bucket.frames += 1
                bucket.bytes += part_size
                if dropped:
                    bucket.dropped_frames += 1
        if self.frame_listeners:
            for listener in self.frame_listeners:
                listener(segment.name, frame.protocol, size, dropped)
        if self.trace_enabled:
            if len(self.trace) < self.trace_limit:
                self.trace.append(
                    TraceEntry(
                        time=segment.sim.now,
                        segment=segment.name,
                        protocol=frame.protocol,
                        src=str(frame.src),
                        dst=str(frame.dst),
                        size=size,
                        dropped=dropped,
                        note=frame.note or f"vectored x{len(frame.parts)}",
                    )
                )
            else:
                self.trace_dropped += 1

    # -- summary accessors ------------------------------------------------------

    @property
    def total_frames(self) -> int:
        return sum(stats.frames for stats in self.stats.values())

    @property
    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self.stats.values())

    def bytes_for(self, protocol: str) -> int:
        stats = self.stats.get(protocol)
        return stats.bytes if stats else 0

    def frames_for(self, protocol: str) -> int:
        stats = self.stats.get(protocol)
        return stats.frames if stats else 0

    def reset(self) -> None:
        """Clear every accumulator (see the module docstring's contract)."""
        self.stats.clear()
        self.per_segment.clear()
        self.trace.clear()
        self.trace_dropped = 0
        self.frames_coalesced = 0
        self.coalesced_extra_per_segment.clear()
        self.coalesced_dropped_extra_per_segment.clear()

    def summary_rows(self) -> list[tuple[str, int, int]]:
        """(protocol, frames, bytes) rows sorted by descending bytes.

        Rows are pure protocol tallies; trace truncation is reported by
        the explicit ``trace_dropped`` attribute, not a sentinel row.
        """
        rows = [
            (protocol, stats.frames, stats.bytes)
            for protocol, stats in self.stats.items()
        ]
        rows.sort(key=lambda row: row[2], reverse=True)
        return rows
