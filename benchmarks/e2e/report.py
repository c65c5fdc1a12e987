"""Run outcomes, result checks and per-layer metric assembly."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from benchmarks.e2e.trace import unit_breakdown


@dataclass
class RunOutcome:
    """What one workload run produced."""

    correct: bool
    attempted: int
    failed: int
    #: End-to-end metrics (tracing off, or the untraced rounds).
    e2e: dict[str, float]
    #: Per-layer metrics (traced runs only).
    layers: dict[str, float]
    #: Everything else the results JSON records.
    details: dict = field(default_factory=dict)
    tracer: object = None


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile: an observed value, never interpolated."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if len(ordered) == 0:
        return float("nan")
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def better_half(rounds, key):
    """The ``ceil(n/2)`` rounds with the smallest ``key``."""
    return sorted(rounds, key=key)[:(len(rounds) + 1) // 2]


def end_to_end(latency_rounds, rate_rounds) -> dict[str, float]:
    """Latency and throughput end-to-end metrics of one run.

    Every phase runs in rounds.  Interference from outside the process
    arrives in episodes of seconds and only ever slows a round down, so
    each metric is taken over the better half of its rounds, pooled:

    * ``latency_rounds``: one array of latencies (ms) per round; the
      half with the lowest mean is pooled for the mean and the 90th
      percentile.  The mean, not the median: zipf-repeat's latency is
      bimodal (cache hits ~0.1 ms, misses ~5 ms) with its median on the
      hit/miss boundary, where it jumps with the load generator's
      wake-up jitter, while the mean moves smoothly with the hit rate.
    * ``rate_rounds``: ``(completed, seconds)`` per round; the half with
      the highest rate gives the throughput.
    """
    pooled = np.concatenate(better_half(latency_rounds, key=np.mean))
    fast = better_half(rate_rounds, key=lambda r: -r[0] / r[1])
    return {
        "latency_mean_ms": float(np.mean(pooled)),
        "latency_p90_ms": nearest_rank(pooled, 0.90),
        "throughput_per_s": (
            sum(done for done, _ in fast) / sum(wall for _, wall in fast)
        ),
    }


def _float_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def same_result(got, want) -> bool:
    """Bitwise equality of two :class:`~repro.core.hybrid.HybridResult`
    objects: probabilities, class, decision, verdict and the reliable
    execution counters (wall time aside)."""
    if got.probabilities.tobytes() != want.probabilities.tobytes():
        return False
    if (got.predicted_class, got.decision) != (
        want.predicted_class, want.decision
    ):
        return False
    a, b = got.verdict, want.verdict
    if (a.matches, a.word, a.reliable) != (b.matches, b.word, b.reliable):
        return False
    if _float_bits(a.distance) != _float_bits(b.distance):
        return False
    x, y = got.reliable_report, want.reliable_report
    if (x is None) != (y is None):
        return False
    if x is None:
        return True
    return (
        x.operations, x.errors_detected, x.rollbacks,
        x.persistent_failures, x.operator_kind, x.failed_outputs,
    ) == (
        y.operations, y.errors_detected, y.rollbacks,
        y.persistent_failures, y.operator_kind, y.failed_outputs,
    )


#: Per-flush / per-trial timings: metric name -> span name (and
#: whether it is the span's self time).
TIMED_SPANS = {
    "hybrid.call_ms.p50": ("hybrid", False),
    "hybrid.self_ms.p50": ("hybrid", True),
    "nn.forward_ms.p50": ("nn", False),
    "nn.conv_ms.p50": ("nn.conv", False),
    "nn.dense_ms.p50": ("nn.dense", False),
    "nn.pool_ms.p50": ("nn.pool", False),
    "nn.other_ms.p50": ("nn.other", False),
    "qualifier.check_ms.p50": ("qualifier", False),
    "qualifier.self_ms.p50": ("qualifier", True),
    "vision.frontend_ms.p50": ("vision.frontend", False),
    "vision.label_ms.p50": ("vision.label", False),
    "vision.trace_ms.p50": ("vision.trace", False),
    "vision.series_ms.p50": ("vision.series", False),
    "sax.symbols_ms.p50": ("sax.symbols", False),
    "sax.words_ms.p50": ("sax.words", False),
    "sax.mindist_ms.p50": ("sax.mindist", False),
}


#: Per-layer metrics of the serving layer and its load generator (zero
#: on workloads that do not serve).
SERVING_METRICS = (
    "serving.queue_wait_share",
    "serving.busy_frac",
    "serving.batch_size.mean",
    "serving.submit_share",
    "serving.cache_hit_rate",
    "serving.cache_joins",
    "serving.cache_evictions",
    "loadgen.late_frac",
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(spans, units) -> dict[str, float]:
    """Per-layer metrics over ``units``: ``(root span, end)`` pairs,
    where ``end`` extends a serving flush through its demux."""
    rows = unit_breakdown([unit for unit, _ in units], spans)
    for row, (unit, end) in zip(rows, units):
        row["unit"] = end - unit.start

    def column(key):
        return np.array([row.get(key, 0.0) for row in rows])

    def total(key):
        return float(column(key).sum())

    def attr(key):
        return sum(row["attrs"].get(key, 0) for row in rows)

    unit = column("unit")
    hybrid = column("hybrid")
    metrics = {
        "dispatch.unit_ms.p50": 1e3 * float(np.median(unit)),
        "dispatch.self_ms.p50": 1e3 * float(np.median(unit - hybrid)),
    }
    for name, (span, self_time) in TIMED_SPANS.items():
        key = f"{span}.self" if self_time else span
        metrics[name] = 1e3 * float(np.median(column(key)))
    operations = attr("reliable.operations")
    rollbacks = attr("reliable.rollbacks")
    metrics.update({
        "reliable.forward_share": _share(total("reliable"), total("hybrid")),
        "reliable.ops_per_image": _share(
            operations, attr("reliable.images")
        ),
        "reliable.errors_detected": attr("reliable.errors_detected"),
        "reliable.rollbacks": rollbacks,
        "reliable.persistent_failures": attr(
            "reliable.persistent_failures"
        ),
        "reliable.rollback_frac": _share(rollbacks, operations),
        "qualifier.repairs": attr("qualifier_repairs"),
        "qualifier.unavailable": attr("qualifier.unavailable"),
        "campaigns.build_share": _share(
            total("campaigns.build"), float(unit.sum())
        ),
        "layer_coverage_frac": _share(float(hybrid.sum()), float(unit.sum())),
    })
    return metrics
