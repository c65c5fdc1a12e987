"""Serving-layer throughput: micro-batching vs the serial infer loop,
for **both** paper architectures.

The deployment claim of the serving layer, asserted end to end: with
64 concurrent in-flight single-image requests, the micro-batching
server must deliver a multiple of the throughput of serving the same
images through a serial per-request ``pipeline.infer()`` loop -- and
every served result must be **bitwise identical** to that serial
call's.  The speedup is pure batching (one batcher thread does all
inference; no thread-level parallelism is assumed), so it reflects
what the batched engines -- batch-invariant CNN forward, single-lane
batched qualifier, single-pass speculate-then-verify kernels -- buy
under request-per-image traffic.

Historically this bench pinned ``architecture="parallel"`` because the
integrated (Figure-2) hybrid's ``infer_batch`` lost to its own
per-image loop.  That regression is fixed (deterministic units run one
speculative pass instead of ``executions_per_op`` identical ones, and
the pass reads each tap's operands as a window of the padded input
into reused scratch buffers), so the pin is
gone: both architectures are asserted, the parallel hybrid at >= 3x
and the integrated hybrid at >= 2x -- plus a direct >= 2x bar on
integrated ``infer_batch`` against its serial loop at batch 64.
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
TOTAL_REQUESTS = 256  # sustained load: 4 full windows of 64
ROUNDS = 3
IMAGE_SIZE = 32
BATCH = 64

#: Per-architecture serving floors.  The parallel hybrid qualifies the
#: input image (cheap CNN, one qualifier pass); the integrated hybrid
#: additionally runs its dependable partition per request, which
#: amortises less, hence the lower -- but now comfortably held -- bar.
MIN_SPEEDUP = {"parallel": 3.0, "integrated": 2.0}

#: Direct floor on integrated ``infer_batch`` vs its per-image loop.
MIN_BATCH_SPEEDUP = 2.0


def build_serving_pipeline(architecture: str):
    model = small_cnn(n_classes=8, input_size=IMAGE_SIZE)
    return build_pipeline(
        PipelineConfig(
            architecture=architecture,
            pin_sobel=architecture == "integrated",
            name=f"serving-bench-{architecture}",
        ),
        model,
    )


@pytest.fixture(scope="module", params=["parallel", "integrated"])
def arch(request):
    return request.param


@pytest.fixture(scope="module")
def pipeline(arch):
    return build_serving_pipeline(arch)


@pytest.fixture(scope="module")
def images():
    return np.stack([
        render_sign(
            i % 8, size=IMAGE_SIZE, rotation=np.deg2rad(3 * i - 60)
        )
        for i in range(CONCURRENCY)
    ]).astype(np.float32)


def _serve_round(server, images) -> tuple[list, float]:
    """One sustained-load round: TOTAL_REQUESTS requests from
    CLIENT_THREADS client threads, each thread keeping its share of
    the 64-request window in flight (submit; once the window is full,
    wait for its oldest completion before submitting the next) --
    steady-state request-per-image traffic, wall-clocked from the
    start signal to the last completion."""
    per_thread_window = CONCURRENCY // CLIENT_THREADS
    results: list = [None] * TOTAL_REQUESTS
    barrier = threading.Barrier(CLIENT_THREADS + 1)

    def client(thread_index: int) -> None:
        barrier.wait(timeout=30)
        window: list[tuple[int, object]] = []
        for index in range(
            thread_index, TOTAL_REQUESTS, CLIENT_THREADS
        ):
            if len(window) == per_thread_window:
                oldest, pending = window.pop(0)
                results[oldest] = pending.result(timeout=120)
            window.append(
                (index, server.submit(images[index % len(images)]))
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


def test_serving_throughput_and_parity(arch, pipeline, images):
    # The honest baseline: the same pipeline serving the same images
    # one request at a time, exactly as a non-batching front-end would.
    serial = [pipeline.infer(image) for image in images]
    serial_seconds = math.inf
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for index in range(TOTAL_REQUESTS):
            pipeline.infer(images[index % len(images)])
        serial_seconds = min(
            serial_seconds, time.perf_counter() - start
        )

    config = ServingConfig(
        max_batch=CONCURRENCY,
        max_wait_ms=10.0,
        queue_capacity=2 * CONCURRENCY,
    )
    served_seconds = math.inf
    with pipeline.serve(config) as server:
        _serve_round(server, images)  # warm-up: caches, allocators
        for _ in range(ROUNDS):
            results, elapsed = _serve_round(server, images)
            served_seconds = min(served_seconds, elapsed)
        stats = server.stats()

    # Parity first: the speedup claim is only meaningful if every
    # concurrent result is the serial result, bit for bit -- per-image
    # execution reports included.
    for i, got in enumerate(results):
        _assert_request_parity(
            got, serial[i % len(images)], f"{arch} request {i}"
        )

    serial_rps = TOTAL_REQUESTS / serial_seconds
    served_rps = TOTAL_REQUESTS / served_seconds
    speedup = served_rps / serial_rps
    min_speedup = MIN_SPEEDUP[arch]
    print(
        f"\n[{arch}] {TOTAL_REQUESTS} requests, {CONCURRENCY} in-flight "
        f"@ {IMAGE_SIZE}px: serial {serial_seconds * 1e3:.0f}ms "
        f"({serial_rps:.0f} rps), served {served_seconds * 1e3:.0f}ms "
        f"({served_rps:.0f} rps), {speedup:.2f}x, mean batch "
        f"{stats.mean_batch_size:.1f}, p50 {stats.p50_latency_ms:.1f}ms "
        f"p99 {stats.p99_latency_ms:.1f}ms"
    )
    assert stats.mean_batch_size > CONCURRENCY / 4, (
        "micro-batching barely coalesced "
        f"(mean batch {stats.mean_batch_size:.1f}); the speedup would "
        "not be attributable to batching"
    )
    assert speedup >= min_speedup, (
        f"{arch} serving only {speedup:.2f}x over the serial infer "
        f"loop ({served_seconds:.3f}s vs {serial_seconds:.3f}s)"
    )


def test_integrated_infer_batch_beats_serial_loop():
    """The tentpole bar, measured directly: integrated ``infer_batch``
    at batch 64 (32px) is >= 2x its own per-image ``infer`` loop,
    bitwise identical result for result."""
    pipeline = build_serving_pipeline("integrated")
    batch_images = np.stack([
        render_sign(
            i % 8, size=IMAGE_SIZE, rotation=np.deg2rad(5 * i - 45)
        )
        for i in range(BATCH)
    ]).astype(np.float32)

    # Warm-up both paths: imports, caches, allocators.
    pipeline.infer_batch(batch_images[:4])
    pipeline.infer(batch_images[0])

    serial_seconds = math.inf
    batch_seconds = math.inf
    for _ in range(ROUNDS):
        start = time.perf_counter()
        singles = [pipeline.infer(image) for image in batch_images]
        serial_seconds = min(
            serial_seconds, time.perf_counter() - start
        )
        start = time.perf_counter()
        batch = pipeline.infer_batch(batch_images)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    for i, (got, want) in enumerate(zip(batch, singles)):
        _assert_request_parity(got, want, f"batch image {i}")

    speedup = serial_seconds / batch_seconds
    print(
        f"\n[integrated] infer_batch({BATCH}) @ {IMAGE_SIZE}px: "
        f"serial loop {serial_seconds * 1e3:.0f}ms, batch "
        f"{batch_seconds * 1e3:.0f}ms, {speedup:.2f}x"
    )
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"integrated infer_batch only {speedup:.2f}x its per-image "
        f"loop ({batch_seconds:.3f}s vs {serial_seconds:.3f}s)"
    )


def test_backpressure_under_sustained_overload(pipeline, images):
    """Overload sanity (both architectures): a reject-policy server
    under 4x queue-capacity burst traffic stays live, serves what it
    accepted, and accounts for every rejection."""
    config = ServingConfig(
        max_batch=16,
        max_wait_ms=0.5,
        queue_capacity=16,
        overflow="reject",
    )
    accepted = []
    rejected = 0
    with pipeline.serve(config) as server:
        for _ in range(4):
            for image in images:
                try:
                    accepted.append(server.submit(image))
                except Exception:
                    rejected += 1
        results = [p.result(timeout=120) for p in accepted]
        stats = server.stats()
    assert len(results) == len(accepted)
    assert stats.completed == len(accepted)
    assert stats.rejected == rejected
    assert stats.completed + stats.rejected == 4 * len(images)
