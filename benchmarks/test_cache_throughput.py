"""Response-cache throughput under skewed traffic, both architectures.

The deployment claim of the content-addressed cache
(``repro.serving.cache``), asserted end to end: under Zipfian traffic
(s = 1.1 -- the canonical web-workload skew) over a 256-image corpus,
a ``cache="lru"`` server must deliver **>= 3x** the throughput of the
identical ``cache="off"`` server at the same 64-request in-flight
window, while every delivered result stays **bitwise identical** to a
serial ``pipeline.infer()`` call -- the determinism guarantee is
precisely what makes serving a cached result indistinguishable from
recomputing it.  Skewed traffic should cost O(unique images), not
O(requests).

Honest methodology:

* every measured round gets a **fresh server and a cold cache**, so
  the speedup reflects one pass of the traffic (each distinct image
  computed once, every repeat a hit/join) -- no warm-cache carryover
  inflating later rounds;
* the cache-off baseline runs the *same* windowed drive, so the only
  variable is the cache;
* a uniform-traffic guard drives each corpus image exactly once
  (zero achievable hits) through both configurations and asserts the
  cache path costs < 5% extra -- the digest/lookup overhead a
  cache-miss-only workload pays.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np
import pytest

from repro.api import (
    PipelineConfig,
    ServingConfig,
    build_pipeline,
)
from repro.data import render_sign
from repro.models.smallcnn import small_cnn
from tests.support.fuzz import (
    assert_reports_equal,
    assert_verdicts_bitwise_equal,
)

CONCURRENCY = 64
CLIENT_THREADS = 8
CORPUS = 256
TOTAL_REQUESTS = 1536
ZIPF_S = 1.1
SEED = 20260808
ROUNDS = 3
UNIFORM_ROUNDS = 5
IMAGE_SIZE = 32

MIN_SPEEDUP = 3.0
MAX_UNIFORM_OVERHEAD = 1.05


def build_cache_pipeline(architecture: str):
    model = small_cnn(n_classes=8, input_size=IMAGE_SIZE)
    return build_pipeline(
        PipelineConfig(
            architecture=architecture,
            pin_sobel=architecture == "integrated",
            name=f"cache-bench-{architecture}",
        ),
        model,
    )


def serving_config(cache: str) -> ServingConfig:
    return ServingConfig(
        max_batch=CONCURRENCY,
        # Short flush timer, same for both configurations: under the
        # cache, leaders *trickle* between instantly-completed hits,
        # and a long timer would bill the cache for batcher idle time
        # rather than inference saved.
        max_wait_ms=2.0,
        queue_capacity=2 * CONCURRENCY,
        cache=cache,
        cache_max_entries=2 * CORPUS,  # never evicts during a round
    )


def zipf_schedule() -> np.ndarray:
    """The fixed request schedule: TOTAL_REQUESTS corpus indices drawn
    Zipf(s=1.1) over ranks 1..CORPUS, seeded -- every run, every
    configuration, both architectures replay identical traffic."""
    rng = np.random.default_rng(SEED)
    ranks = np.arange(1, CORPUS + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_S
    return rng.choice(
        CORPUS, size=TOTAL_REQUESTS, p=weights / weights.sum()
    )


def uniform_schedule() -> np.ndarray:
    """Each corpus image exactly once, in a fixed shuffled order --
    the zero-reuse workload for the overhead guard."""
    rng = np.random.default_rng(SEED + 1)
    return rng.permutation(CORPUS)


@pytest.fixture(scope="module", params=["parallel", "integrated"])
def arch(request):
    return request.param


@pytest.fixture(scope="module")
def pipeline(arch):
    return build_cache_pipeline(arch)


@pytest.fixture(scope="module")
def corpus():
    images = np.stack([
        render_sign(
            i % 8, size=IMAGE_SIZE, rotation=np.deg2rad(1.3 * i - 55)
        )
        for i in range(CORPUS)
    ]).astype(np.float32)
    # Watermark one pixel per image with its index: some renderings
    # collide bitwise (rotation symmetry), and the content-addressed
    # cache would -- correctly -- conflate them, breaking the bench's
    # distinct-image accounting.  The stamp makes content-distinct
    # mean index-distinct.
    images[:, 0, 0, 0] = np.arange(CORPUS, dtype=np.float32) / CORPUS
    return images


def _drive(server, corpus, schedule) -> tuple[list, float]:
    """One windowed round of ``schedule`` traffic: CLIENT_THREADS
    client threads, each keeping its share of the CONCURRENCY-request
    window in flight, wall-clocked from the start barrier to the last
    completion."""
    per_thread_window = CONCURRENCY // CLIENT_THREADS
    total = len(schedule)
    results: list = [None] * total
    barrier = threading.Barrier(CLIENT_THREADS + 1)

    def client(thread_index: int) -> None:
        barrier.wait(timeout=30)
        window: list[tuple[int, object]] = []
        for index in range(thread_index, total, CLIENT_THREADS):
            if len(window) == per_thread_window:
                oldest, pending = window.pop(0)
                results[oldest] = pending.result(timeout=120)
            window.append(
                (index, server.submit(corpus[schedule[index]]))
            )
        for index, pending in window:
            results[index] = pending.result(timeout=120)

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - start
    assert all(r is not None for r in results)
    return results, elapsed


def _measure(pipeline, corpus, schedule, cache: str):
    """Min-of-ROUNDS wall time for one configuration.  Each round is
    a fresh server (cold cache), after one unmeasured warm-up round."""
    best = math.inf
    results = None
    stats = None
    for round_index in range(ROUNDS + 1):
        with pipeline.serve(serving_config(cache)) as server:
            round_results, elapsed = _drive(server, corpus, schedule)
            round_stats = server.stats()
        if round_index == 0:
            continue  # warm-up: imports, caches, allocators
        if elapsed < best:
            best = elapsed
        results, stats = round_results, round_stats
    return results, best, stats


def _assert_request_parity(got, want, context: str) -> None:
    assert got.probabilities.tobytes() == (
        want.probabilities.tobytes()
    ), f"{context}: probabilities diverged from serial infer()"
    assert got.predicted_class == want.predicted_class, context
    assert got.decision == want.decision, context
    assert_verdicts_bitwise_equal(got.verdict, want.verdict, context)
    assert (got.reliable_report is None) == (
        want.reliable_report is None
    ), context
    if got.reliable_report is not None:
        assert_reports_equal(
            got.reliable_report, want.reliable_report, context
        )


def test_zipf_cache_throughput_and_parity(arch, pipeline, corpus):
    schedule = zipf_schedule()
    distinct = len(set(schedule.tolist()))

    results_off, off_seconds, _ = _measure(
        pipeline, corpus, schedule, cache="off"
    )
    results_lru, lru_seconds, stats = _measure(
        pipeline, corpus, schedule, cache="lru"
    )

    # Parity first: cached delivery must be indistinguishable -- bit
    # for bit, execution reports included -- from a serial infer() of
    # the same image.  One serial reference per *distinct* image.
    serial = {
        index: pipeline.infer(corpus[index])
        for index in sorted(set(schedule.tolist()))
    }
    for i, got in enumerate(results_lru):
        _assert_request_parity(
            got, serial[int(schedule[i])], f"{arch} lru request {i}"
        )
    for i, got in enumerate(results_off):
        _assert_request_parity(
            got, serial[int(schedule[i])], f"{arch} off request {i}"
        )

    # The cache did what the Zipf math says it must: every distinct
    # image computed exactly once (cold cache, no eviction), every
    # repeat answered as a hit or an in-flight join.
    assert stats.cache_misses == distinct, (
        f"expected {distinct} misses (one per distinct image), got "
        f"{stats.cache_misses}"
    )
    assert (
        stats.cache_hits + stats.coalesced_joins
        == TOTAL_REQUESTS - distinct
    )
    assert stats.cache_evictions == 0
    assert stats.completed == TOTAL_REQUESTS

    speedup = off_seconds / lru_seconds
    hit_rate = stats.cache_hit_rate
    print(
        f"\n[{arch}] zipf(s={ZIPF_S}) {TOTAL_REQUESTS} requests over "
        f"{distinct}/{CORPUS} distinct @ {IMAGE_SIZE}px: off "
        f"{off_seconds * 1e3:.0f}ms, lru {lru_seconds * 1e3:.0f}ms, "
        f"{speedup:.2f}x, hit-rate {hit_rate:.2f} "
        f"({stats.cache_hits} hits + {stats.coalesced_joins} joins), "
        f"cached p50 {stats.p50_cached_latency_ms:.2f}ms vs computed "
        f"p50 {stats.p50_computed_latency_ms:.1f}ms"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"{arch} cache only {speedup:.2f}x over cache-off "
        f"({lru_seconds:.3f}s vs {off_seconds:.3f}s) at hit-rate "
        f"{hit_rate:.2f}"
    )


def test_uniform_traffic_overhead_guard(arch, pipeline, corpus):
    """Zero-reuse traffic (every corpus image exactly once) must cost
    < 5% extra with the cache on: the price of a miss is one sha256
    over the image bytes plus one locked dict probe."""
    schedule = uniform_schedule()

    # Paired rounds: a 5% relative guard on sub-second wall times
    # cannot survive scheduling jitter unless each round times the
    # two configurations back-to-back and the guard takes the *best*
    # per-round ratio -- intrinsic overhead (digest + lookup on every
    # miss) is present in every round, so the minimum bounds it,
    # while jitter only ever inflates a ratio.
    off_seconds = lru_seconds = math.inf
    overhead = math.inf
    results_off = results_lru = stats = None
    for round_index in range(UNIFORM_ROUNDS + 1):
        with pipeline.serve(serving_config("off")) as server:
            round_off, elapsed_off = _drive(server, corpus, schedule)
        with pipeline.serve(serving_config("lru")) as server:
            round_lru, elapsed_lru = _drive(server, corpus, schedule)
            round_stats = server.stats()
        if round_index == 0:
            continue  # warm-up: imports, caches, allocators
        off_seconds = min(off_seconds, elapsed_off)
        lru_seconds = min(lru_seconds, elapsed_lru)
        overhead = min(overhead, elapsed_lru / elapsed_off)
        results_off, results_lru = round_off, round_lru
        stats = round_stats

    assert stats.cache_hits == 0
    assert stats.cache_misses == CORPUS
    for got, want in zip(results_lru, results_off):
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.decision == want.decision

    print(
        f"\n[{arch}] uniform {CORPUS} requests: off "
        f"{off_seconds * 1e3:.0f}ms, lru {lru_seconds * 1e3:.0f}ms, "
        f"best paired ratio {overhead:.3f}x"
    )
    assert overhead <= MAX_UNIFORM_OVERHEAD, (
        f"{arch} cache-on uniform traffic {overhead:.3f}x the "
        f"cache-off path (guard {MAX_UNIFORM_OVERHEAD}x): digest or "
        "lookup overhead has crept into the miss path"
    )
