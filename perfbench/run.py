"""Host-cost benchmark of the home-middleware reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload modern_rpc --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see ``layers.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``README.md`` in this directory for the workloads
and the metric catalogue.

One run is a series of episodes.  An episode builds a fresh world from a
script (timed: ``setup_s``), drives the script through it on the virtual
clock (host CPU timed: ``host_us_per_op``), then checks every answer.  The
first ``SCRIPTS`` episodes (set by each workload) each use their own
script, derived from ``--seed``; the virtual metrics pool those episodes,
so they are exact for a seed.  Further episodes repeat the scripts in turn
until ``--seconds`` of wall time have passed, and must reproduce their
script's virtual metrics exactly.

Host time on a shared machine drifts by tens of percent as neighbours come
and go, and that noise only ever slows a run down.  So each episode is
preceded by a fixed pure-Python reference loop, and the host metrics are
scaled to a nominal host on which that loop takes ``REFERENCE_US`` of CPU:
``host_us_per_op`` is the quiet mean (see ``quiet``) of the episodes' CPU
per op and ``setup_s`` the median of their set-up times, each times
``REFERENCE_US`` / (quiet mean of the run's reference timings).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from common import Tally

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: CPU time of one ``reference()`` on the nominal host that the host
#: metrics are scaled to (about what it takes on a quiet 2-vCPU box).
REFERENCE_US = 2000.0
#: ``reference()`` runs this many times before each episode.
REFERENCE_REPEATS = 10
#: The share of a run's fastest timings that ``quiet`` averages.
QUIET_SHARE = 0.25
#: Scripts a traced run covers: the per-layer metrics are host-time
#: shares, which a few scripts already settle.
TRACED_SCRIPTS = 4
#: Ops still unanswered when the last op falls due may not exceed this
#: share of the ops (an open loop below saturation keeps it small).
BACKLOG_SHARE = 0.05
#: The C14 scale benchmark's assumed directory service time per operation
#: in us (``SERVICE_TIME`` in benchmarks/test_c14_scale.py, fed to
#: ``ShardLoadModel``); printed beside the measured cost.
C14_SERVICE_TIME_US = 360.0

END_TO_END = (
    ("setup_s", "s"),
    ("host_us_per_op", "us"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("event_p50_ms", "ms"),
    ("event_p99_ms", "ms"),
    ("wire_bytes_per_op", "B"),
    ("rss_peak_mb", "MB"),
)


def load_workloads() -> dict:
    """Workload modules by name; raises ImportError without ``src/``."""
    sys.path.insert(0, str(SRC))
    import directory_churn
    import legacy_home
    import modern_rpc

    return {module.NAME: module for module in (modern_rpc, legacy_home, directory_churn)}


def reference() -> int:
    """A fixed slice of interpreter work (dict updates, string formatting,
    list appends, a join, a split and a sort) that shares no code with the
    program, timed to gauge how fast the host runs at the moment."""
    table: dict[str, int] = {}
    parts = []
    for index in range(6000):
        key = "k%d" % (index % 211)
        table[key] = table.get(key, 0) + index
        parts.append(key.upper())
    return len("|".join(parts).split("|")) + len(sorted(table.items()))


def quiet(timings: list[float]) -> float:
    """Mean of the fastest ``QUIET_SHARE`` of ``timings``: the cost while
    the host was least disturbed."""
    fastest = sorted(timings)[: max(1, round(len(timings) * QUIET_SHARE))]
    return sum(fastest) / len(fastest)


def time_reference(samples: list[float]) -> None:
    """Append the CPU us of ``REFERENCE_REPEATS`` runs of ``reference()``."""
    for _ in range(REFERENCE_REPEATS):
        start = time.process_time()
        reference()
        samples.append((time.process_time() - start) * 1e6)


class Episodes:
    """Runs episodes of one workload and keeps what they measured."""

    def __init__(self, workload, seed: int, tracer=None, scripts: int | None = None) -> None:
        self.workload = workload
        #: The first ``scripts`` of the workload's ``SCRIPTS`` for this seed.
        self.count = scripts or workload.SCRIPTS
        self.scripts = [workload.script(seed * workload.SCRIPTS + index) for index in range(self.count)]
        self.tracer = tracer
        self.setups: list[float] = []
        self.host_us: list[float] = []
        self.reference_us: list[float] = []
        self.tallies: list = []
        self.windows: list[dict] = []
        self.problems: list[str] = []

    def run_one(self) -> None:
        index = len(self.tallies) % self.count
        script = self.scripts[index]
        gc.collect()
        time_reference(self.reference_us)
        if self.tracer is not None:
            self.tracer.new_world()
        start = time.perf_counter()
        world = self.workload.build(script)
        self.setups.append(time.perf_counter() - start)
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin()
        tally = self.workload.drive(world, script)
        if self.tracer is not None:
            self.windows.append(self.tracer.end())
        self.host_us.append(tally.cpu_s / max(1, tally.completed) * 1e6)
        if len(self.tallies) >= self.count and tally.virtual() != self.tallies[index].virtual():
            self.problems.append(f"script {index} gave other virtual metrics on a repeat")
        if tally.backlog > BACKLOG_SHARE * tally.attempted:
            self.problems.append(f"script {index}: {tally.backlog} ops in flight at the end")
        self.problems.extend(tally.problems)
        self.tallies.append(tally)

    def run(self, seconds: float) -> "Episodes":
        start = time.perf_counter()
        while len(self.tallies) < self.count or time.perf_counter() - start < seconds:
            self.run_one()
        return self

    def host_scale(self) -> float:
        """Nominal over measured host speed during this run."""
        return REFERENCE_US / quiet(self.reference_us)

    @property
    def attempted(self) -> int:
        return sum(tally.attempted for tally in self.tallies)

    @property
    def failed(self) -> int:
        return sum(tally.errors for tally in self.tallies)

    def pooled(self):
        """One tally pooling the first ``count`` episodes."""
        pooled = Tally()
        for tally in self.tallies[:self.count]:
            pooled.attempted += tally.attempted
            pooled.failed += tally.failed
            pooled.wrong += tally.wrong
            pooled.completed += tally.completed
            pooled.op_latency += tally.op_latency
            pooled.event_latency += tally.event_latency
            pooled.wire_bytes += tally.wire_bytes
        return pooled


def end_to_end(episodes: Episodes) -> dict[str, float]:
    pooled = episodes.pooled()
    scale = episodes.host_scale()
    metrics = {
        "setup_s": statistics.median(episodes.setups) * scale,
        "host_us_per_op": quiet(episodes.host_us) * scale,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(pooled.virtual())
    return metrics


def report_end_to_end(name: str, seed: int, episodes: Episodes, metrics: dict) -> None:
    pooled = episodes.pooled()
    print(f"workload {name}  seed {seed}  episodes {len(episodes.tallies)}  scripts {episodes.count}")
    print("load: open loop on the virtual clock; generator lateness 0 by construction "
          "(the virtual clock waits for the program)")
    print(f"samples: {len(pooled.op_latency)} op latencies, {len(pooled.event_latency)} "
          f"event latencies, {pooled.completed} completed ops per {episodes.count} scripts")
    print(f"host: reference loop quiet mean {quiet(episodes.reference_us):.0f} us of CPU, "
          f"so host metrics x {episodes.host_scale():.4f}; unscaled CPU per op median "
          f"{statistics.median(episodes.host_us):.1f} us, quiet mean "
          f"{quiet(episodes.host_us):.1f} us; unscaled set-up median "
          f"{statistics.median(episodes.setups):.4f} s")
    for metric, unit in END_TO_END:
        print(f"  {metric:<20} {metrics[metric]:>14.4f} {unit}")
    print(f"  {'error_rate':<20} {metrics['error_rate']:>14.4f} ratio")


def traced_run(workload, seed: int, seconds: float) -> tuple[list[Episodes], dict]:
    """Untraced episodes for half of ``seconds``, then one traced episode
    for each of the first ``TRACED_SCRIPTS`` scripts.  Prints the per-layer
    table and returns both series and the per-layer metrics,
    ``{name: (value, unit)}``."""
    import layers

    plain = Episodes(workload, seed, scripts=TRACED_SCRIPTS).run(seconds / 2)
    tracer = layers.LayerTracer().install()
    try:
        traced = Episodes(workload, seed, tracer, TRACED_SCRIPTS).run(0)
    finally:
        tracer.uninstall()
    for index in range(traced.count):
        if traced.tallies[index].virtual() != plain.tallies[index].virtual():
            traced.problems.append(f"tracing changed the virtual metrics of script {index}")
    raw = layers.merge(traced.windows)
    ops = sum(tally.completed for tally in traced.tallies)
    metrics = layers.layer_metrics(raw, ops)
    overhead = statistics.median(traced.host_us) / statistics.median(plain.host_us)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.dump_spans(str(out / f"spans-{workload.NAME}-{seed}.jsonl"))
    with open(out / f"layers-{workload.NAME}-{seed}.json", "w", encoding="utf-8") as handle:
        json.dump({"ops": ops, "metrics": metrics, "raw": raw}, handle, indent=1, sort_keys=True)
    print(f"workload {workload.NAME}  seed {seed}  traced episodes {len(traced.tallies)}  ops {ops}")
    print(f"  {'layer':<11} {'self us/op':>11} {'share':>7}")
    for layer, us_per_op, share in layers.self_time_table(raw, ops):
        print(f"  {layer:<11} {us_per_op:>11.2f} {share:>7.1%}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>12.4f} {unit}")
    requests = raw["counts"].get("directory.request", 0)
    if requests:
        per_request = raw["incl_ns"]["directory.request"] / 1000.0 / requests
        print(f"calibration: the directory spends {per_request:.1f} us per request on SOAP dispatch "
              f"and WSDL serialisation (traced run); C14 assumes {C14_SERVICE_TIME_US:.0f} us "
              f"(ShardLoadModel.service_time)")
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = load_workloads()
    except ImportError as exc:
        print(f"cannot import the program under test from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    if args.trace:
        runs, metrics = traced_run(workload, args.seed, args.seconds)
    else:
        episodes = Episodes(workload, args.seed).run(args.seconds)
        measured = end_to_end(episodes)
        report_end_to_end(workload.NAME, args.seed, episodes, measured)
        runs = [episodes]
        metrics = {name: (measured[name], unit) for name, unit in END_TO_END}
    problems = [problem for episodes in runs for problem in episodes.problems]
    for problem in problems[:8]:
        print(f"problem: {problem}")
    failed = sum(episodes.failed for episodes in runs)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(episodes.attempted for episodes in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
