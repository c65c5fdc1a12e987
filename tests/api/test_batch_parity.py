"""Batched-vs-single parity: ``infer_batch`` must be *bitwise*
identical to per-image ``infer``.

This is the contract that makes the batched hot path safe to deploy:
a safety argument certified on single-image inference carries over to
the batched server unchanged.  Covered for both architectures and
under fault injection (recoverable transients in the dependable path,
weight corruption in the non-reliable path).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PipelineConfig, build_pipeline
from repro.data import render_sign
from repro.faults.injector import FaultyExecutionUnit, flip_weight_bits
from repro.faults.models import TransientFault
from repro.models import small_cnn
from repro.reliable.executor import ReliableConv2D
from repro.reliable.operators import RedundantOperator
from repro.reliable.qualified import QualifiedValue
from tests.support.fuzz import assert_reports_equal
from tests.support.oracles import parallel_infer_reference


def assert_bitwise_parity(batch, singles, reports=False):
    """``reports=True`` additionally requires each batch result's
    ``reliable_report`` to be the serial report counter-for-counter --
    only meaningful when batch and serial runs share one deterministic
    execution, not when each run draws its own fault stream."""
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        np.testing.assert_array_equal(got.probabilities, want.probabilities)
        assert got.predicted_class == want.predicted_class
        assert got.decision == want.decision
        assert got.verdict.matches == want.verdict.matches
        assert got.verdict.distance == want.verdict.distance
        assert got.verdict.word == want.verdict.word
        assert got.verdict.reliable == want.verdict.reliable
        if reports:
            assert (got.reliable_report is None) == (
                want.reliable_report is None
            )
            if got.reliable_report is not None:
                assert_reports_equal(
                    got.reliable_report, want.reliable_report,
                    "batch vs serial reliable_report",
                )


@pytest.fixture(scope="module")
def images():
    return np.stack([
        render_sign(i % 8, size=32, rotation=np.deg2rad(3 * i))
        for i in range(8)
    ])


class TestParallelParity:
    """``infer`` is ``infer_batch`` of one, so each test also holds
    the single-image results to the scalar oracle
    (:func:`tests.support.oracles.parallel_infer_reference`)."""

    def test_batch_matches_singles(self, images):
        pipeline = build_pipeline(
            PipelineConfig(architecture="parallel"),
            small_cnn(32, 8, conv1_filters=8),
        )
        batch = pipeline.infer_batch(images)
        singles = [pipeline.infer(image) for image in images]
        assert_bitwise_parity(batch, singles)
        assert_bitwise_parity(singles, [
            parallel_infer_reference(pipeline.hybrid, image)
            for image in images
        ])

    def test_batch_matches_singles_with_views(self, images):
        pipeline = build_pipeline(
            PipelineConfig(architecture="parallel"),
            small_cnn(32, 8, conv1_filters=8),
        )
        views = np.stack([
            render_sign(i % 8, size=128, rotation=np.deg2rad(3 * i))
            for i in range(len(images))
        ])
        batch = pipeline.infer_batch(images, qualifier_views=views)
        singles = [
            pipeline.infer(image, qualifier_view=view)
            for image, view in zip(images, views)
        ]
        assert_bitwise_parity(batch, singles)
        assert_bitwise_parity(singles, [
            parallel_infer_reference(pipeline.hybrid, image, view)
            for image, view in zip(images, views)
        ])

    def test_parity_under_weight_corruption(self, images, rng):
        """Exponent-bit flips drive activations to extreme values
        (inf/NaN included); batched and single inference must corrupt
        identically."""
        model = small_cnn(32, 8, conv1_filters=8)
        flip_weight_bits(model.layer("conv1"), 40, rng, bit_range=(23, 31))
        pipeline = build_pipeline(
            PipelineConfig(architecture="parallel"), model
        )
        with np.errstate(over="ignore", invalid="ignore"):
            batch = pipeline.infer_batch(images)
            singles = [pipeline.infer(image) for image in images]
            reference = [
                parallel_infer_reference(pipeline.hybrid, image)
                for image in images
            ]
        assert_bitwise_parity(batch, singles)
        assert_bitwise_parity(singles, reference)


class TestIntegratedParity:
    @pytest.fixture(scope="class")
    def few_images(self, images):
        # The reliable partition runs Algorithm 3 one multiply at a
        # time in Python; keep the image count small.
        return images[:3]

    def test_batch_matches_singles(self, few_images):
        pipeline = build_pipeline(
            PipelineConfig(architecture="integrated", pin_sobel=True),
            small_cnn(32, 8, conv1_filters=8),
        )
        batch = pipeline.infer_batch(few_images)
        singles = [pipeline.infer(image) for image in few_images]
        assert_bitwise_parity(batch, singles, reports=True)
        for result in batch:
            assert result.reliable_report is not None

    def test_parity_under_transient_faults(self, few_images):
        """Transient PE faults in the dependable arithmetic are
        detected and rolled back, so recovered outputs -- batched or
        not -- equal the fault-free ones bitwise."""
        pipeline = build_pipeline(
            PipelineConfig(architecture="integrated", pin_sobel=True),
            small_cnn(32, 8, conv1_filters=8),
        )
        conv1 = pipeline.model.layer("conv1")

        def faulted_conv(seed):
            return ReliableConv2D(
                conv1,
                RedundantOperator(FaultyExecutionUnit(
                    TransientFault(1e-5, np.random.default_rng(seed))
                )),
                bucket_ceiling=100_000,
                on_persistent_failure="mark",
            )

        pipeline.hybrid._reliable_conv = faulted_conv(1)
        batch = pipeline.infer_batch(few_images)
        # Reports are per-image now; the faults land somewhere in the
        # batch, not necessarily on image 0.
        assert sum(
            r.reliable_report.errors_detected for r in batch
        ) > 0
        assert all(
            r.reliable_report.persistent_failures == 0 for r in batch
        )

        pipeline.hybrid._reliable_conv = faulted_conv(2)
        singles = [pipeline.infer(image) for image in few_images]
        assert any(
            r.reliable_report.errors_detected > 0 for r in singles
        )
        # reports=False: the two runs draw different fault streams, so
        # only the *recovered* outputs are required to match.
        assert_bitwise_parity(batch, singles)


class TestBatchSerialGuard:
    """Tier-1 guard: ``infer_batch(imgs)`` bitwise equals
    ``[infer(i) for i in imgs]`` -- probabilities, verdicts, decisions
    *and* per-image report attribution -- including batches that mix
    clean, flagged and persistently-failed images, plus the empty and
    singleton edges."""

    SIZE = 24

    class ValueDependentFailure(RedundantOperator):
        """Deterministic persistent failure keyed on operand size:
        products above the cutoff never qualify, so scaled-up images
        overflow their (per-image) leaky bucket while unscaled images
        sail through -- identical behaviour batched or serial.  The
        custom operator type forces the scalar engine on both paths.
        """

        cutoff = 50.0

        def multiply(self, a, b):
            value = a * b
            return QualifiedValue(value, abs(value) <= self.cutoff)

    @pytest.fixture()
    def pipeline(self):
        pipeline = build_pipeline(
            PipelineConfig(architecture="integrated", pin_sobel=True),
            small_cnn(self.SIZE, 8, conv1_filters=8),
        )
        pipeline.hybrid._reliable_conv = ReliableConv2D(
            pipeline.model.layer("conv1"),
            self.ValueDependentFailure(),
            on_persistent_failure="mark",
        )
        return pipeline

    @pytest.fixture()
    def mixed_images(self):
        images = np.stack([
            render_sign(
                i % 8, size=self.SIZE, rotation=np.deg2rad(5 * i)
            )
            for i in range(4)
        ]).astype(np.float32)
        # Images 1 and 3 drive every bright-pixel product past the
        # operator's cutoff: their dependable arithmetic aborts.
        images[1] *= 100.0
        images[3] *= 100.0
        return images

    def test_mixed_batch_bitwise_equal_to_serial(
        self, pipeline, mixed_images
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            batch = pipeline.infer_batch(mixed_images)
            singles = [pipeline.infer(img) for img in mixed_images]
        assert_bitwise_parity(batch, singles, reports=True)
        # The mix is real: exactly the scaled images failed.
        failed = [
            r.reliable_report.persistent_failures > 0 for r in batch
        ]
        assert failed == [False, True, False, True]
        # Per-image attribution reads like a single-image run: every
        # failed output is rebased to image index 0.
        for result, image_failed in zip(batch, failed):
            report = result.reliable_report
            assert bool(report.failed_outputs) == image_failed
            assert all(pos[0] == 0 for pos in report.failed_outputs)
            assert result.verdict.reliable is not image_failed

    def test_empty_batch(self, pipeline):
        empty = np.empty((0, 3, self.SIZE, self.SIZE), dtype=np.float32)
        assert len(pipeline.infer_batch(empty)) == 0

    @pytest.mark.parametrize("index", [0, 1])
    def test_singleton_batch(self, pipeline, mixed_images, index):
        image = mixed_images[index]
        with np.errstate(over="ignore", invalid="ignore"):
            batch = pipeline.infer_batch(image[None])
            single = pipeline.infer(image)
        assert_bitwise_parity(batch, [single], reports=True)
