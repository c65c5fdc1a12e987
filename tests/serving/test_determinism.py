"""Concurrency determinism: the serving layer's parity contract.

N client threads submit in randomized interleavings; every per-request
result must be **bitwise identical** to a serial ``pipeline.infer()``
call on the same image -- whatever micro-batches the interleaving
produced, through both qualifier paths and both architectures.
This is the guarantee the batched engines were built to provide; the
serving layer must surface it unharmed.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import ServingConfig
from tests.serving.conftest import make_pipeline
from tests.support.fuzz import (
    assert_reports_equal,
    assert_verdicts_bitwise_equal,
)


def _serve_concurrently(pipeline, images, seed: int, n_threads: int = 6):
    """Submit every image from worker threads in a randomized
    interleaving; returns results indexed like ``images``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(images))
    shards = [order[i::n_threads] for i in range(n_threads)]
    pendings: list = [None] * len(images)
    errors: list = []
    config = ServingConfig(
        max_batch=int(rng.integers(2, 9)),
        max_wait_ms=float(rng.choice([0.0, 1.0, 5.0])),
        queue_capacity=len(images) + n_threads,
    )
    with pipeline.serve(config) as server:
        barrier = threading.Barrier(n_threads)

        def client(shard, delays):
            try:
                barrier.wait(timeout=30)
                for index, delay in zip(shard, delays):
                    if delay:
                        threading.Event().wait(delay)
                    pendings[index] = server.submit(images[index])
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = []
        for shard in shards:
            delays = rng.choice(
                [0.0, 0.0, 0.001, 0.004], size=len(shard)
            )
            thread = threading.Thread(target=client, args=(shard, delays))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        return [p.result(timeout=60) for p in pendings]


#: The two paths ``check_batch`` can take: ``"auto"`` -- the policy
#: picks the batched engine for a stock qualifier -- and ``"scalar"``,
#: the per-image loop a subclassed qualifier takes.
@pytest.mark.parametrize("path", ["auto", "scalar"])
def test_concurrent_results_bitwise_equal_serial_infer(images, path):
    pipeline = make_pipeline(per_image_qualifier=path == "scalar")
    serial = [pipeline.infer(image) for image in images]
    for seed in (0, 1):
        served = _serve_concurrently(pipeline, images, seed=seed)
        for i, (got, want) in enumerate(zip(served, serial)):
            context = f"path={path} seed={seed} image={i}"
            assert got.probabilities.tobytes() == (
                want.probabilities.tobytes()
            ), context
            assert got.predicted_class == want.predicted_class, context
            assert got.decision == want.decision, context
            assert_verdicts_bitwise_equal(
                got.verdict, want.verdict, context
            )


def test_concurrent_results_bitwise_equal_integrated(images):
    """The integrated hybrid (in-network reliable partition) carries
    the same contract through the server -- including each request's
    per-image ``reliable_report``, which must be the report the same
    image gets from a serial ``infer`` whatever micro-batch the
    interleaving packed it into."""
    pipeline = make_pipeline(architecture="integrated")
    serial = [pipeline.infer(image) for image in images]
    served = _serve_concurrently(pipeline, images, seed=3)
    for i, (got, want) in enumerate(zip(served, serial)):
        assert got.probabilities.tobytes() == (
            want.probabilities.tobytes()
        ), i
        assert got.decision == want.decision, i
        assert_verdicts_bitwise_equal(got.verdict, want.verdict, str(i))
        assert got.reliable_report is not None, i
        assert_reports_equal(
            got.reliable_report, want.reliable_report,
            f"served vs serial reliable_report, image {i}",
        )


def test_qualifier_views_served_bitwise(images):
    """Mixed with-view/without-view traffic demuxes and stays bitwise
    equal to the serial calls (views at a different resolution than
    the classifier input)."""
    from repro.data import render_sign

    pipeline = make_pipeline()
    views = np.stack([
        render_sign(i % 8, size=48, rotation=np.deg2rad(11 * i - 40))
        for i in range(len(images))
    ]).astype(np.float32)
    serial = [
        pipeline.infer(image, qualifier_view=view)
        for image, view in zip(images, views)
    ]
    serial_plain = [pipeline.infer(image) for image in images]
    with pipeline.serve(ServingConfig(max_batch=16, max_wait_ms=20)) as server:
        with_view = [
            server.submit(image, qualifier_view=view)
            for image, view in zip(images, views)
        ]
        without_view = [server.submit(image) for image in images]
        for i, pending in enumerate(with_view):
            got = pending.result(timeout=60)
            assert got.probabilities.tobytes() == (
                serial[i].probabilities.tobytes()
            )
            assert got.decision == serial[i].decision
            assert_verdicts_bitwise_equal(got.verdict, serial[i].verdict)
        for i, pending in enumerate(without_view):
            got = pending.result(timeout=60)
            assert got.decision == serial_plain[i].decision
            assert_verdicts_bitwise_equal(
                got.verdict, serial_plain[i].verdict
            )
