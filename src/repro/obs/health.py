"""Health and SLO scoring over streamed telemetry windows.

The federation collector (:mod:`repro.obs.telemetry`) merges per-island
delta reports; this module turns a rolling virtual-time window of those
deltas into one verdict per island — ``healthy`` / ``degraded`` /
``unhealthy`` — plus the SLO numbers behind it (call success rate,
bucket-interpolated p50/p99 latency, breaker-open and channel-fallback
counts).  Everything here is pure arithmetic over counter increments:
no clocks, no randomness, no I/O, so identical windows always score
identically.

The latency quantiles come from the registry's fixed-bucket histograms
(:data:`repro.obs.metrics.DEFAULT_BUCKETS`): the flattened snapshot keys
(``<name>.le_<bound>`` / ``<name>.overflow``) are self-describing, so
:func:`quantile_from_buckets` reconstructs the bounds from the key names
and interpolates linearly inside the bucket holding the requested rank.
"""

from __future__ import annotations

from typing import Any, Mapping

#: Status levels in increasing severity; the score keeps the worst one.
HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

STATUS_LEVEL = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}


# The scoring thresholds are deliberately forgiving: a single failed call
# in a small window must not flap an island to ``degraded``, so rate
# thresholds only apply once MIN_SAMPLES attempts landed in the window.

#: Attempts required in the window before success rates are judged.
MIN_SAMPLES = 3
#: Below this in-window success rate the island is ``degraded``.
DEGRADED_SUCCESS_RATE = 0.9
#: Below this in-window success rate the island is ``unhealthy``.
UNHEALTHY_SUCCESS_RATE = 0.5
#: Report staleness beyond this many times the agent's interval marks the
#: island ``unhealthy`` (its telemetry went dark).
STALE_AFTER_REPORTS = 2.5
#: p99 call latency (virtual seconds) above this degrades the island.
SLO_P99 = 5.0


def quantile_from_buckets(
    buckets: Mapping[float, float], overflow: float, q: float
) -> float | None:
    """Interpolated quantile from fixed-bucket counts.

    ``buckets`` maps each upper bound to the count of observations at or
    below it (per-bucket counts, not cumulative); ``overflow`` counts
    observations above the last bound.  Returns None on an empty
    histogram.  Observations in the overflow bucket report the last
    finite bound — a deliberate *lower* bound on the true quantile, so an
    SLO breach is never manufactured out of bucket shape alone.
    """
    bounds = sorted(buckets)
    total = sum(buckets[bound] for bound in bounds) + overflow
    if total <= 0:
        return None
    rank = q * total
    cumulative = 0.0
    lower = 0.0
    for bound in bounds:
        count = buckets[bound]
        if count and cumulative + count >= rank:
            fraction = (rank - cumulative) / count
            return lower + (bound - lower) * fraction
        cumulative += count
        if count:
            lower = bound
    # Clamp at the histogram's resolution rather than inventing a tail.
    return bounds[-1] if bounds else None


def latency_quantiles(
    counters: Mapping[str, float], name: str, quantiles: tuple[float, ...] = (0.5, 0.99)
) -> dict[str, float | None]:
    """Extract ``p50``/``p99``-style quantiles for one flattened histogram.

    ``counters`` holds flattened registry keys; ``name`` is the histogram
    prefix (e.g. ``vsg.jini0.call_latency``).  The bucket bounds are
    parsed back out of the ``<name>.le_<bound>`` key names.
    """
    prefix = f"{name}.le_"
    buckets: dict[float, float] = {}
    for key, value in counters.items():
        if key.startswith(prefix):
            try:
                buckets[float(key[len(prefix):])] = value
            except ValueError:
                continue
    overflow = counters.get(f"{name}.overflow", 0)
    return {
        f"p{int(q * 100)}": quantile_from_buckets(buckets, overflow, q)
        for q in quantiles
    }


def window_slo(island: str, counters: Mapping[str, float]) -> dict[str, Any]:
    """SLO inputs for one island from its in-window counter increments."""
    attempts = counters.get(f"resilience.{island}.attempts", 0)
    successes = counters.get(f"resilience.{island}.successes", 0)
    breaker_opens = sum(
        value
        for key, value in counters.items()
        if key.startswith(f"resilience.{island}.breaker.") and key.endswith(".to_open")
    )
    summary: dict[str, Any] = {
        "attempts": attempts,
        "successes": successes,
        "success_rate": (successes / attempts) if attempts else None,
        "breaker_opens": breaker_opens,
        "channel_deaths": counters.get(f"events.{island}.channel_deaths", 0),
    }
    summary.update(latency_quantiles(counters, f"vsg.{island}.call_latency"))
    return summary


def score_island(
    island: str,
    window_counters: Mapping[str, float],
    *,
    staleness: float | None = None,
    report_interval: float = 0.0,
    heartbeat_dead: bool = False,
    breaker_state: str | None = None,
) -> dict[str, Any]:
    """Score one island: the SLO numbers plus a status and its reasons.

    ``staleness`` is virtual seconds since the island's freshest applied
    report; ``heartbeat_dead`` / ``breaker_state`` feed the collector
    host's view from :mod:`repro.core.resilience` — a dead heartbeat or
    an open breaker condemns the island regardless of what its last
    (stale) numbers claimed.
    """
    slo = window_slo(island, window_counters)
    reasons: list[str] = []
    status = HEALTHY

    def worsen(new_status: str, reason: str) -> None:
        nonlocal status
        reasons.append(reason)
        if STATUS_LEVEL[new_status] > STATUS_LEVEL[status]:
            status = new_status

    if heartbeat_dead:
        worsen(UNHEALTHY, "heartbeat-dead")
    if breaker_state == "open":
        worsen(UNHEALTHY, "breaker-open")
    elif breaker_state == "half-open":
        worsen(DEGRADED, "breaker-probing")
    if (
        staleness is not None
        and report_interval > 0
        and staleness > STALE_AFTER_REPORTS * report_interval
    ):
        worsen(UNHEALTHY, "telemetry-stale")
    rate = slo["success_rate"]
    if rate is not None and slo["attempts"] >= MIN_SAMPLES:
        if rate < UNHEALTHY_SUCCESS_RATE:
            worsen(UNHEALTHY, "success-rate")
        elif rate < DEGRADED_SUCCESS_RATE:
            worsen(DEGRADED, "success-rate")
    if slo["breaker_opens"]:
        worsen(DEGRADED, "breaker-opened")
    if slo["channel_deaths"]:
        worsen(DEGRADED, "channel-fallback")
    p99 = slo.get("p99")
    if p99 is not None and p99 > SLO_P99:
        worsen(DEGRADED, "slo-p99")

    slo["status"] = status
    slo["reasons"] = reasons
    slo["staleness"] = staleness
    return slo


def score_replica(
    replica: str,
    *,
    convergence_lag: float,
    sync_interval: float,
    peers: int,
    alive: bool = True,
) -> dict[str, Any]:
    """Score one directory shard replica (:mod:`repro.core.shard`).

    ``convergence_lag`` is virtual seconds since the replica's
    anti-entropy agent last observed (or produced) a converged digest;
    the yardstick is one full gossip cycle — ``sync_interval`` per peer,
    round-robin, so ``sync_interval * peers`` seconds visits everyone.
    A lag past one cycle means the replica is chasing deltas
    (``degraded``); past :data:`STALE_AFTER_REPORTS` cycles its view of the
    shard can no longer be trusted for reads (``unhealthy``) — the same
    multiplier staleness uses for islands, applied to gossip rounds.
    """
    reasons: list[str] = []
    status = HEALTHY

    def worsen(new_status: str, reason: str) -> None:
        nonlocal status
        reasons.append(reason)
        if STATUS_LEVEL[new_status] > STATUS_LEVEL[status]:
            status = new_status

    cycle = sync_interval * max(1, peers)
    if not alive:
        worsen(UNHEALTHY, "replica-down")
    if cycle > 0 and peers > 0:
        if convergence_lag > STALE_AFTER_REPORTS * cycle:
            worsen(UNHEALTHY, "unconverged")
        elif convergence_lag > cycle:
            worsen(DEGRADED, "converging")
    return {
        "replica": replica,
        "status": status,
        "reasons": reasons,
        "convergence_lag": convergence_lag,
        "gossip_cycle": cycle,
    }
