"""Pieces every workload shares: script encoding, the answer tally and
percentiles.

A workload module exposes:

- ``NAME`` and ``WHY``: how it is listed and why it was chosen;
- ``SCRIPTS``: how many distinct scripts one run pools its virtual
  metrics over;
- ``script(seed)``: the whole input, generated up front from the seed as
  plain JSON-able data, so two generations can be compared byte for byte;
- ``build(script)``: the connected world, ready for traffic.  Host wall
  time of this step is ``setup_s``;
- ``drive(world, script)``: schedule every op at its due time with
  ``Simulator.at``, run the virtual clock past the last op, and return a
  :class:`Tally`.  Callbacks only record what happened; the answers are
  checked against the script after the clock stops.

Arrivals are open loop on the virtual clock: the script fixes every due
time before the run, and the virtual clock waits for the program, so the
generator is never late.  Host overload therefore shows up only in
``host_us_per_op``, never in virtual latency.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any


def script_bytes(script: dict[str, Any]) -> bytes:
    """Canonical encoding of a script (what "byte-identical" compares)."""
    return json.dumps(script, sort_keys=True, separators=(",", ":")).encode("utf-8")


def poisson_times(rng, rate: float, start: float, end: float) -> list[float]:
    """Arrival times of a Poisson process of ``rate`` per virtual second
    on ``[start, end)``, rounded to the microsecond so scripts stay exact
    in JSON."""
    times = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return times
        times.append(round(t, 6))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def segment_bytes(network) -> int:
    """Bytes put on every segment of the world so far."""
    return sum(segment.bytes_sent for segment in network.segments.values())


@dataclass
class Tally:
    """What one episode did, judged against its script."""

    #: Ops the script issued plus event deliveries it expects.
    attempted: int = 0
    #: Ops that raised where the script expects an answer, and expected
    #: deliveries that never arrived.
    failed: int = 0
    #: Answers that arrived but differ from what the script says.
    wrong: int = 0
    #: Calls answered + events delivered + directory ops answered.
    completed: int = 0
    #: Virtual seconds from due time to answer (calls and VSR ops).
    op_latency: list[float] = field(default_factory=list)
    #: Virtual seconds from publish to subscriber callback.
    event_latency: list[float] = field(default_factory=list)
    #: Bytes on every segment during the episode.
    wire_bytes: int = 0
    #: Ops still unanswered when the last op fell due.
    backlog: int = 0
    #: Host CPU seconds from scheduling the first op to the end of the drain.
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)

    #: At most this many mismatch descriptions are kept for the report.
    MAX_PROBLEMS = 8

    def note(self, kind: str, what: str) -> None:
        """Count a failure (``kind`` "failed") or a wrong answer."""
        if kind == "failed":
            self.failed += 1
        else:
            self.wrong += 1
        if len(self.problems) < self.MAX_PROBLEMS:
            self.problems.append(f"{kind}: {what}")

    @property
    def errors(self) -> int:
        return self.failed + self.wrong

    def virtual(self) -> dict[str, float]:
        """The virtual-time metrics: deterministic for a given script."""
        ops = max(1, self.completed)
        return {
            "op_p50_ms": percentile(self.op_latency, 50) * 1000.0,
            "op_p99_ms": percentile(self.op_latency, 99) * 1000.0,
            "event_p50_ms": percentile(self.event_latency, 50) * 1000.0,
            "event_p99_ms": percentile(self.event_latency, 99) * 1000.0,
            "wire_bytes_per_op": self.wire_bytes / ops,
            "error_rate": self.errors / max(1, self.attempted),
        }
