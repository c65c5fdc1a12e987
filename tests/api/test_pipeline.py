"""The HybridPipeline facade: construction, inference, aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    BatchResult,
    HybridPipeline,
    PipelineConfig,
    QualifierConfig,
    build_pipeline,
)
from repro.core import (
    Decision,
    HybridPartition,
    IntegratedHybridCNN,
    ParallelHybridCNN,
    ShapeQualifier,
)
from repro.data import STOP_CLASS_INDEX, render_sign
from repro.models import small_cnn
from repro.vision.filters import sobel_axis_stack


@pytest.fixture(scope="module")
def model():
    return small_cnn(32, 8, conv1_filters=8)


@pytest.fixture(scope="module")
def images():
    return np.stack([render_sign(i % 8, size=32) for i in range(6)])


class TestBuildPipeline:
    def test_parallel(self, model):
        pipeline = build_pipeline(PipelineConfig(), model)
        assert isinstance(pipeline, HybridPipeline)
        assert isinstance(pipeline.hybrid, ParallelHybridCNN)
        assert pipeline.model is model
        assert isinstance(pipeline.qualifier, ShapeQualifier)
        assert pipeline.safety_class == STOP_CLASS_INDEX

    def test_integrated(self, model):
        pipeline = build_pipeline(
            PipelineConfig(architecture="integrated"), model
        )
        assert isinstance(pipeline.hybrid, IntegratedHybridCNN)

    def test_qualifier_config_is_applied(self, model):
        pipeline = build_pipeline(
            PipelineConfig(
                qualifier=QualifierConfig(threshold=1.5)
            ),
            model,
        )
        assert pipeline.qualifier.threshold == 1.5

    def test_pin_sobel_sets_dependable_filters(self):
        pinned = small_cnn(32, 8, conv1_filters=8)
        build_pipeline(
            PipelineConfig(architecture="integrated", pin_sobel=True),
            pinned,
        )
        conv1 = pinned.layer("conv1")
        np.testing.assert_array_equal(
            conv1.weight.value[0],
            sobel_axis_stack("x", conv1.kernel_size, conv1.in_channels),
        )
        np.testing.assert_array_equal(
            conv1.weight.value[1],
            sobel_axis_stack("y", conv1.kernel_size, conv1.in_channels),
        )

    def test_pin_sobel_rejected_for_parallel(self):
        """Parallel has no in-network dependable partition; pinning
        would only clobber trained filters -- even when a partition
        is (pointlessly) configured."""
        with pytest.raises(ValueError, match="parallel"):
            build_pipeline(
                PipelineConfig(architecture="parallel", pin_sobel=True),
                small_cnn(32, 8, conv1_filters=8),
            )
        with pytest.raises(ValueError, match="parallel"):
            build_pipeline(
                PipelineConfig(
                    architecture="parallel",
                    pin_sobel=True,
                    partition=HybridPartition(),
                ),
                small_cnn(32, 8, conv1_filters=8),
            )

    def test_pin_sobel_requires_two_filters(self):
        with pytest.raises(ValueError, match="two reliable filters"):
            build_pipeline(
                PipelineConfig(
                    architecture="integrated",
                    pin_sobel=True,
                    partition=HybridPartition(
                        reliable_filters={"conv1": (0,)}
                    ),
                ),
                small_cnn(32, 8, conv1_filters=8),
            )

    def test_config_type_is_checked(self, model):
        with pytest.raises(TypeError):
            build_pipeline({"architecture": "parallel"}, model)


class TestInference:
    def test_infer_matches_direct_construction(self, model):
        pipeline = build_pipeline(PipelineConfig(), model)
        direct = ParallelHybridCNN(
            model, ShapeQualifier(), STOP_CLASS_INDEX
        )
        image = render_sign(0, size=32)
        ours = pipeline.infer(image)
        theirs = direct.infer(image)
        np.testing.assert_array_equal(ours.probabilities,
                                      theirs.probabilities)
        assert ours.decision == theirs.decision

    def test_qualifier_view_routes_to_qualifier(self, model):
        pipeline = build_pipeline(PipelineConfig(), model)
        cnn_view = render_sign(0, size=32, rotation=np.deg2rad(4))
        qualifier_view = render_sign(0, size=128, rotation=np.deg2rad(4))
        result = pipeline.infer(cnn_view, qualifier_view=qualifier_view)
        # At 128px the octagon detector sees enough resolution.
        assert result.verdict.matches

    def test_integrated_rejects_qualifier_views(self, model):
        pipeline = build_pipeline(
            PipelineConfig(architecture="integrated"), model
        )
        image = render_sign(0, size=32)
        with pytest.raises(ValueError, match="qualifier view"):
            pipeline.infer(image, qualifier_view=image)
        with pytest.raises(ValueError, match="qualifier view"):
            pipeline.infer_batch(image[None], qualifier_views=image[None])

    def test_infer_stream_matches_batch(self, model, images):
        pipeline = build_pipeline(PipelineConfig(), model)
        batch = pipeline.infer_batch(images)
        streamed = list(pipeline.infer_stream(iter(images), batch_size=4))
        assert len(streamed) == len(batch)
        for s, b in zip(streamed, batch):
            np.testing.assert_array_equal(s.probabilities, b.probabilities)
            assert s.decision == b.decision

    def test_mismatched_view_count_fails_fast(self, model, images):
        pipeline = build_pipeline(PipelineConfig(), model)
        with pytest.raises(ValueError, match="qualifier views"):
            pipeline.infer_batch(images, qualifier_views=images[:-1])

    def test_infer_stream_validates_batch_size(self, model, images):
        pipeline = build_pipeline(PipelineConfig(), model)
        with pytest.raises(ValueError):
            list(pipeline.infer_stream(iter(images), batch_size=0))


class TestBatchResult:
    def test_aggregates(self, model, images):
        pipeline = build_pipeline(PipelineConfig(), model)
        batch = pipeline.infer_batch(images)
        assert isinstance(batch, BatchResult)
        assert batch.n_images == len(images)
        assert len(batch) == len(images)
        assert batch.probabilities.shape == (len(images), 8)
        assert batch.predicted_classes.shape == (len(images),)
        # Every decision kind has a stable key, zero counts included.
        assert set(batch.decision_counts) == {d.value for d in Decision}
        assert sum(batch.decision_counts.values()) == len(images)
        assert batch.confirmed_count == batch.decision_counts["confirmed"]
        assert batch.summary().startswith(f"{len(images)} images\n")

    def test_empty_batch(self, model):
        """An empty batch is a quiet no-op, not a shape error."""
        pipeline = build_pipeline(PipelineConfig(), model)
        batch = pipeline.infer_batch(np.zeros((0, 3, 32, 32)))
        assert batch.n_images == 0
        assert batch.probabilities.shape[0] == 0
        assert batch.predicted_classes.shape == (0,)
        assert sum(batch.decision_counts.values()) == 0
        integrated = build_pipeline(
            PipelineConfig(architecture="integrated"), model
        )
        assert integrated.infer_batch(np.zeros((0, 3, 32, 32))).n_images == 0

    def test_container_protocol(self, model, images):
        batch = build_pipeline(PipelineConfig(), model).infer_batch(images)
        assert batch[0] is batch.results[0]
        assert [r for r in batch] == batch.results
