"""Deterministic metrics: named counters, gauges and fixed-bucket histograms.

The registry is the numeric side of ``repro.obs``: while spans answer
"where did *this* call spend its time", metrics answer "how often and how
much, in aggregate" — per-island call counts and latency, breaker state
transitions, VSR cache behaviour, connection-pool churn, event batching.

Design points:

- **Deterministic.**  No wall-clock, no sampling, no locks (the simulation
  is single-threaded).  Histograms use fixed upper bounds supplied at
  creation, so a snapshot of two identical runs is byte-identical.
- **Count once.**  A component that already keeps a count in an int
  attribute registers it once with :meth:`MetricsRegistry.track`
  (``metrics.track("vsg.jini", self, "counter", ["calls_out"])``); the
  registry reads the attribute when a snapshot is taken, so the hot path
  pays nothing.  Records created on the call path (breakers, health
  records, per-protocol tallies) are registered once through the mapping
  that holds them (:meth:`MetricsRegistry.track_each`).  Pushed instruments
  (``counter(name).inc()``, ``histogram(name).observe(v)``) are for values
  with no other home: histograms, and counts nobody else keeps.
- **Zero cost when disabled.**  :class:`NullMetrics` hands out one shared
  no-op instrument for every name, ignores :meth:`~MetricsRegistry.track`
  and keeps no state.  :class:`CountsOnlyMetrics`, the registry of a
  bundle with observability off, hands out the same no-op instruments
  but keeps what is tracked, since a tracked count costs nothing until a
  snapshot reads it.
"""

from __future__ import annotations

import json
from typing import Any, Iterable


class Counter:
    """Monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can move both ways (pool size, breaker state)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


#: Default histogram bounds, tuned for virtual-time latencies (seconds):
#: sub-millisecond native calls up through multi-second degraded bridged
#: calls land in distinct buckets.
DEFAULT_BUCKETS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus count/sum/min/max.

    Bounds are fixed at creation, so the shape of the snapshot never
    depends on the data — a requirement for byte-identical exports.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> Any:
        """Flat dict so the registry snapshot stays one level deep."""
        flat: dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        for bound, count in zip(self.bounds, self.bucket_counts):
            flat[f"le_{bound}"] = count
        flat["overflow"] = self.bucket_counts[-1]
        return flat


class MetricsRegistry:
    """Process-wide named instruments with a deterministic snapshot.

    Every tracked owner stays referenced for the registry's life (so for
    the life of the :class:`~repro.obs.Observability` bundle that holds
    it): a component replaced under the same name keeps contributing the
    counts it made, and the new one's add to them.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: name -> (kind, [(owner, attribute), ...]) read at snapshot time.
        self._tracked: dict[str, tuple[str, list[tuple[Any, str]]]] = {}
        #: (prefix, mapping, kind, {suffix: attribute}) read at snapshot
        #: time for every record the mapping holds then.
        self._records: list[tuple[str, Any, str, dict[str, str]]] = []

    def _refuse_tracked(self, name: str) -> None:
        # One writer per name: a pushed instrument and a tracked attribute
        # under one name would report only one of the two.
        if name in self._tracked:
            raise ValueError(f"metric {name!r} is already tracked from an attribute")

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._refuse_tracked(name)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._refuse_tracked(name)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        elif tuple(sorted(buckets)) != instrument.bounds:
            # A silent mismatch would put observations in a differently
            # shaped histogram than the caller expects.
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds}"
            )
        return instrument

    def track(
        self,
        prefix: str,
        owner: Any,
        kind: str,
        attributes: Iterable[str] | dict[str, str],
    ) -> None:
        """Report ``getattr(owner, attribute)`` as ``<prefix>.<suffix>`` for
        each ``suffix: attribute`` pair (a bare name is both), read
        whenever a snapshot is taken.

        ``kind`` is ``"counter"`` (reported as monotonic) or ``"gauge"``
        (reported as a level).  Sources tracked under one name sum, as
        increments of one shared :class:`Counter` would.
        """
        for suffix, attribute in _suffixes(kind, attributes).items():
            name = f"{prefix}.{suffix}"
            if name in self._counters or name in self._gauges:
                raise ValueError(f"metric {name!r} is already a pushed instrument")
            entry = self._tracked.setdefault(name, (kind, []))
            if entry[0] != kind:
                raise ValueError(f"metric {name!r} is already tracked as a {entry[0]}")
            entry[1].append((owner, attribute))

    def track_each(
        self,
        prefix: str,
        mapping: Any,
        kind: str,
        attributes: Iterable[str] | dict[str, str],
    ) -> None:
        """:meth:`track` for every ``key: record`` that ``mapping`` holds
        when a snapshot is taken, as ``<prefix>.<key>.<suffix>``.

        For records made on the call path: registering their mapping once
        costs that path nothing, and a mapping emptied and refilled in
        place is never stale.  A record that leaves its mapping leaves the
        snapshot, so its counters are monotonic only while it stays (see
        ``records`` in :meth:`snapshot_typed`).
        """
        self._records.append((prefix, mapping, kind, _suffixes(kind, attributes)))

    @staticmethod
    def _read(sources: list[tuple[Any, str]]) -> Any:
        return sum(getattr(owner, attribute) for owner, attribute in sources)

    def value(self, name: str) -> Any:
        """Current value of the counter or gauge ``name`` (pushed or
        tracked); 0 for a name nothing registered.  Never creates an
        instrument, so a read leaves every snapshot as it was."""
        instrument = self._counters.get(name) or self._gauges.get(name)
        if instrument is not None:
            return instrument.value
        entry = self._tracked.get(name)
        total = self._read(entry[1]) if entry is not None else 0
        head, _, suffix = name.rpartition(".")
        for prefix, mapping, _kind, attributes in self._records:
            if suffix in attributes and head.startswith(prefix + "."):
                record = mapping.get(head[len(prefix) + 1:])
                if record is not None:
                    total += getattr(record, attributes[suffix])
        return total

    def snapshot(self) -> dict[str, Any]:
        """Name-sorted flat dict of every instrument's value (histograms
        flatten to ``name.count`` / ``name.sum`` / ``name.le_<bound>`` ...)."""
        monotonic, level = self.snapshot_typed()
        merged = {**monotonic, **level}
        return {name: merged[name] for name in sorted(merged)}

    def snapshot_typed(self, records: bool = True) -> tuple[dict[str, Any], dict[str, Any]]:
        """The flat snapshot split by merge semantics: ``(monotonic, level)``.

        *Monotonic* values only ever grow — counters, histogram
        ``count``/``sum``/``le_*``/``overflow`` — so a consumer can ship
        them as increments and re-sum them idempotently (the telemetry
        plane's delta encoding).  *Level* values move both ways or are
        extremes — gauges, histogram ``min``/``max`` — and must be shipped
        absolute.  Both halves are name-sorted; ``None`` min/max of empty
        histograms are included so the union matches :meth:`snapshot`.

        ``records=False`` leaves out the names read through
        :meth:`track_each`: a record can leave its mapping, so a consumer
        that ships counters as increments must not rely on them.
        """
        monotonic: dict[str, Any] = {}
        level: dict[str, Any] = {}
        for name, counter in self._counters.items():
            monotonic[name] = counter.value
        for name, gauge in self._gauges.items():
            level[name] = gauge.value
        for name, (kind, sources) in self._tracked.items():
            (monotonic if kind == "counter" else level)[name] = self._read(sources)
        for prefix, mapping, kind, attributes in self._records if records else ():
            into = monotonic if kind == "counter" else level
            for key, record in mapping.items():
                for suffix, attribute in attributes.items():
                    name = f"{prefix}.{key}.{suffix}"
                    into[name] = into.get(name, 0) + getattr(record, attribute)
        for name, histogram in self._histograms.items():
            for key, value in histogram.snapshot().items():
                if key in ("min", "max"):
                    level[f"{name}.{key}"] = value
                else:
                    monotonic[f"{name}.{key}"] = value
        return (
            {name: monotonic[name] for name in sorted(monotonic)},
            {name: level[name] for name in sorted(level)},
        )

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2)


def _suffixes(kind: str, attributes: Iterable[str] | dict[str, str]) -> dict[str, str]:
    if kind not in ("counter", "gauge"):
        raise ValueError(f"cannot track a {kind!r}; pick counter or gauge")
    if isinstance(attributes, dict):
        return dict(attributes)
    return {name: name for name in attributes}


class _NullInstrument:
    """One object that can stand in for Counter, Gauge and Histogram."""

    __slots__ = ()
    name = ""
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: every lookup returns the shared no-op instrument."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets: Iterable[float] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def track(self, prefix: str, owner: Any, kind: str, attributes: Any) -> None:
        pass

    def track_each(self, prefix: str, mapping: Any, kind: str, attributes: Any) -> None:
        pass

    def value(self, name: str) -> Any:
        return 0

    def snapshot(self) -> dict[str, Any]:
        return {}

    def snapshot_typed(self, records: bool = True) -> tuple[dict[str, Any], dict[str, Any]]:
        return {}, {}

    def to_json(self) -> str:
        return "{}"


class CountsOnlyMetrics(MetricsRegistry):
    """The registry of a bundle with observability off: it keeps what
    components track, and hands out the shared no-op instrument for every
    pushed counter, gauge and histogram, as :class:`NullMetrics` does."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets: Iterable[float] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT
