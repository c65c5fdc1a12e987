"""Batched hybrid inference: exactness and throughput.

The acceptance contract of the ``repro.api`` batching hot path:

* ``infer_batch`` over >= 32 images produces **bitwise identical**
  probabilities and decisions to per-image ``infer`` calls;
* the batched path is measurably faster than the per-image loop (the
  CNN half collapses into one vectorised
  :meth:`~repro.nn.network.Sequential.forward`; the per-shape
  qualifier remains per-image in both paths).

Parity must hold bitwise -- not approximately -- because a safety
argument certified on single-image inference only carries over to the
batched server if the numbers are the same numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import PipelineConfig, build_pipeline
from repro.data import render_sign
from repro.models import alexnet_scaled

N_IMAGES = 64
TRIALS = 5


@pytest.fixture(scope="module")
def pipeline():
    model = alexnet_scaled(n_classes=8, input_size=64)
    return build_pipeline(
        PipelineConfig(architecture="parallel", name="batch-bench"), model
    )


@pytest.fixture(scope="module")
def images():
    return np.stack([
        render_sign(i % 8, size=64, rotation=np.deg2rad(2 * i))
        for i in range(N_IMAGES)
    ])


def test_batch_matches_singles_bitwise(pipeline, images):
    assert len(images) >= 32
    batch = pipeline.infer_batch(images)
    singles = [pipeline.infer(image) for image in images]
    for got, want in zip(batch, singles):
        np.testing.assert_array_equal(got.probabilities, want.probabilities)
        assert got.predicted_class == want.predicted_class
        assert got.decision == want.decision
        assert got.verdict == want.verdict
    assert sum(batch.decision_counts.values()) == N_IMAGES


def test_batch_faster_than_per_image_loop(pipeline, images):
    pipeline.infer_batch(images)  # warm-up (allocators, caches)
    batch_times = []
    loop_times = []
    for _ in range(TRIALS):
        start = time.perf_counter()
        pipeline.infer_batch(images)
        batch_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        for image in images:
            pipeline.infer(image)
        loop_times.append(time.perf_counter() - start)
    best_batch = min(batch_times)
    best_loop = min(loop_times)
    print()
    print(f"{N_IMAGES} images, best of {TRIALS}: "
          f"batch={best_batch:.3f}s ({N_IMAGES / best_batch:.1f} img/s)  "
          f"loop={best_loop:.3f}s ({N_IMAGES / best_loop:.1f} img/s)  "
          f"speedup={best_loop / best_batch:.2f}x")
    assert best_batch < best_loop, (
        f"batched inference ({best_batch:.3f}s) must beat the "
        f"per-image loop ({best_loop:.3f}s)"
    )


def test_stream_throughput_matches_batch(pipeline, images):
    """infer_stream is chunked infer_batch: same results, same order."""
    batch = pipeline.infer_batch(images)
    streamed = list(pipeline.infer_stream(iter(images), batch_size=16))
    assert len(streamed) == len(batch)
    for got, want in zip(streamed, batch):
        np.testing.assert_array_equal(got.probabilities, want.probabilities)
        assert got.decision == want.decision
