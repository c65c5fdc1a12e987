"""Server-side metrics: counters, latency percentiles, batch shape.

The recorder is the single point the server threads touch (under its
own lock, never the batcher's); :class:`ServerStats` is the immutable
snapshot handed to callers, so reading metrics never races serving.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True, kw_only=True)
class ServerStats:
    """One consistent snapshot of a :class:`~repro.serving.server.
    PipelineServer`'s counters.

    Attributes
    ----------
    submitted, completed, failed:
        Requests accepted (into the queue, or answered or joined by
        the response cache), requests whose result was delivered, and
        requests completed with an error (the pipeline raised; the
        exception is re-raised by ``PendingResult.result``).  Each
        request is counted once, where its handle completes, so
        ``submitted == completed + failed + cancelled`` once nothing
        is pending.
    rejected:
        Submissions refused by backpressure (``overflow="reject"`` with
        a full queue, or a ``block`` submission that timed out).
    cancelled:
        Requests abandoned: by a non-draining stop, by a batcher
        death, or as followers of a cache leader that backpressure
        refused.
    degraded:
        Completed results whose decision was qualifier-flagged and
        therefore routed to the degradation hook (see
        ``repro.core.hybrid.HybridResult.flagged``).
    batches:
        Micro-batches flushed to ``infer_batch``.
    mean_batch_size:
        Mean realized micro-batch size (completed + failed over
        batches); the adaptivity figure of merit -- 1.0 means the
        batcher never coalesced anything.
    throughput_rps:
        Completed requests per second of server uptime.  Uptime (and
        therefore this rate) spans *every* running period of the
        server's life, matching the counters, which also persist
        across stop/start cycles -- a restart never inflates the rate
        by dividing all-time completions by only the latest run.
    p50_latency_ms, p99_latency_ms:
        Submit-to-completion latency percentiles over the most recent
        :data:`LATENCY_WINDOW` deliveries (0.0 before any delivery).
    uptime_seconds:
        Total wall time the server has spent running, accumulated
        across stop/start cycles (frozen while stopped).
    queue_depth:
        Requests waiting in the queue at snapshot time.
    cache_hits, cache_misses, coalesced_joins:
        Response-cache outcomes (all zero under ``cache="off"`` or
        per-submit opt-out): submissions answered from the completed
        store, submissions that became a key's single-flight leader
        (and therefore cost one inference), and submissions that
        attached to an in-flight leader.  See
        :mod:`repro.serving.cache`.
    cache_evictions:
        LRU entries dropped because the store exceeded
        ``cache_max_entries``.
    cache_entries:
        Results held in the store at snapshot time.
    cache_hit_rate:
        ``(cache_hits + coalesced_joins) / (cache_hits + cache_misses
        + coalesced_joins)`` -- the fraction of cache-eligible
        submissions that did *not* cost a dedicated inference (0.0
        before any lookup).
    p50_cached_latency_ms, p99_cached_latency_ms:
        Latency percentiles over the cached part of the same window
        (store hits and coalesced joins) -- what repeat traffic
        experiences.
    p50_computed_latency_ms, p99_computed_latency_ms:
        Latency percentiles over the computed part of the same window
        (requests that went through a micro-batch flush) -- what
        unique traffic experiences.  The overall ``p50/p99_latency_ms``
        mix both.
    """

    submitted: int
    completed: int
    failed: int
    rejected: int
    cancelled: int
    degraded: int
    batches: int
    mean_batch_size: float
    throughput_rps: float
    p50_latency_ms: float
    p99_latency_ms: float
    uptime_seconds: float
    queue_depth: int
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced_joins: int = 0
    cache_evictions: int = 0
    cache_entries: int = 0
    cache_hit_rate: float = 0.0
    p50_cached_latency_ms: float = 0.0
    p99_cached_latency_ms: float = 0.0
    p50_computed_latency_ms: float = 0.0
    p99_computed_latency_ms: float = 0.0

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


#: How many recent deliveries feed the latency percentiles.
LATENCY_WINDOW = 2048


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (the latency-reporting convention:
    p99 is an actual observed latency, never an interpolation)."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values))  # 1-based nearest rank
    index = min(len(sorted_values) - 1, max(0, rank - 1))
    return sorted_values[index]


class StatsRecorder:
    """Thread-safe accumulator behind :meth:`PipelineServer.stats`.

    The server records each request once, where its handle completes:
    :meth:`record_delivery` for a result, :meth:`record_ended` for an
    error.  One window of ``(seconds, cached)`` pairs holds the last
    :data:`LATENCY_WINDOW` deliveries; :meth:`snapshot` splits it by
    source."""

    #: Thread-safety contract, machine-checked by LOCK-GUARD: every
    #: counter is written by the batcher thread and read by snapshot
    #: callers, so all access goes through ``_lock``.
    _guarded_by = {
        "_lock": (
            "submitted",
            "completed",
            "failed",
            "rejected",
            "cancelled",
            "degraded",
            "batches",
            "cache_hits",
            "cache_misses",
            "coalesced_joins",
            "cache_evictions",
            "_batched_requests",
            "_started_at",
            "_stopped_at",
            "_uptime_before",
            "_latencies",
        ),
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies: deque[tuple[float, bool]] = deque(
            maxlen=LATENCY_WINDOW
        )
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.cancelled = 0
        self.degraded = 0
        self.batches = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced_joins = 0
        self.cache_evictions = 0
        self._batched_requests = 0
        self._started_at: float | None = None
        self._stopped_at: float | None = None
        #: Uptime banked from completed running periods.  Counters
        #: survive a stop/start cycle, so uptime must too: dividing
        #: all-time completions by only the latest run's elapsed time
        #: would inflate ``throughput_rps`` on every restart.
        self._uptime_before = 0.0

    # -- lifecycle -------------------------------------------------------
    def mark_started(self) -> None:
        with self._lock:
            if self._started_at is not None and self._stopped_at is not None:
                # Bank the previous running period before starting the
                # next one; counters are cumulative across restarts,
                # so the uptime they are divided by must be as well.
                self._uptime_before += self._stopped_at - self._started_at
            self._started_at = time.perf_counter()
            self._stopped_at = None

    def mark_stopped(self) -> None:
        with self._lock:
            if self._started_at is not None:
                self._stopped_at = time.perf_counter()

    # -- events ----------------------------------------------------------
    def record_submitted(self) -> None:
        """One request accepted into the queue."""
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_lookup(self, outcome: str) -> None:
        """One response-cache resolution: ``"hit"``, ``"joined"`` or
        ``"lead"``.  A hit or a join is accepted on the spot, so it is
        counted submitted here; a leader is counted submitted only once
        its enqueue succeeds (:meth:`record_submitted`)."""
        with self._lock:
            if outcome == "lead":
                self.cache_misses += 1
                return
            self.submitted += 1
            if outcome == "hit":
                self.cache_hits += 1
            else:
                self.coalesced_joins += 1

    def record_delivery(
        self, latency_s: float, cached: bool, degraded: bool
    ) -> None:
        """One result delivered: from the cache (a hit or a joined
        follower) or computed by a flush."""
        with self._lock:
            self.completed += 1
            self.degraded += degraded
            self._latencies.append((latency_s, cached))

    def record_ended(self, count: int, failed: bool) -> None:
        """``count`` requests ended with an error: ``failed`` when the
        pipeline raised, cancelled otherwise (stop, batcher death,
        refused leader's followers)."""
        with self._lock:
            if failed:
                self.failed += count
            else:
                self.cancelled += count

    def record_flush(self, size: int) -> None:
        """One micro-batch of ``size`` requests flushed (counted when
        the flush ends, crashed or not)."""
        with self._lock:
            self.batches += 1
            self._batched_requests += size

    def record_cache_evictions(self, count: int) -> None:
        with self._lock:
            self.cache_evictions += count

    # -- snapshot --------------------------------------------------------
    def snapshot(
        self, queue_depth: int, cache_entries: int = 0
    ) -> ServerStats:
        with self._lock:
            if self._started_at is None:
                uptime = self._uptime_before
            else:
                end = self._stopped_at
                if end is None:
                    end = time.perf_counter()
                uptime = self._uptime_before + (end - self._started_at)
            window = sorted(self._latencies)
            ordered = [seconds for seconds, _ in window]
            cached = [seconds for seconds, from_cache in window if from_cache]
            computed = [
                seconds for seconds, from_cache in window if not from_cache
            ]
            lookups = (
                self.cache_hits + self.cache_misses + self.coalesced_joins
            )
            return ServerStats(
                submitted=self.submitted,
                completed=self.completed,
                failed=self.failed,
                rejected=self.rejected,
                cancelled=self.cancelled,
                degraded=self.degraded,
                batches=self.batches,
                mean_batch_size=(
                    self._batched_requests / self.batches
                    if self.batches
                    else 0.0
                ),
                throughput_rps=(
                    self.completed / uptime if uptime > 0 else 0.0
                ),
                p50_latency_ms=1e3 * _percentile(ordered, 0.50),
                p99_latency_ms=1e3 * _percentile(ordered, 0.99),
                uptime_seconds=uptime,
                queue_depth=queue_depth,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                coalesced_joins=self.coalesced_joins,
                cache_evictions=self.cache_evictions,
                cache_entries=cache_entries,
                cache_hit_rate=(
                    (self.cache_hits + self.coalesced_joins) / lookups
                    if lookups
                    else 0.0
                ),
                p50_cached_latency_ms=1e3 * _percentile(cached, 0.50),
                p99_cached_latency_ms=1e3 * _percentile(cached, 0.99),
                p50_computed_latency_ms=1e3 * _percentile(computed, 0.50),
                p99_computed_latency_ms=1e3 * _percentile(computed, 0.99),
            )
