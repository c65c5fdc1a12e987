"""Serving-test fixtures: small pipelines that build in milliseconds.

Determinism -- not classification quality -- is what these tests
assert, so the models are untrained (weights from a fixed seed); the
pipeline's numbers are deterministic either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PipelineConfig, build_pipeline
from repro.core.qualifier import ShapeQualifier
from repro.data import render_sign
from repro.models.smallcnn import small_cnn

IMAGE_SIZE = 24
N_IMAGES = 24


@pytest.fixture(scope="session")
def images():
    return np.stack([
        render_sign(
            i % 8, size=IMAGE_SIZE, rotation=np.deg2rad(11 * i - 40)
        )
        for i in range(N_IMAGES)
    ]).astype(np.float32)


class PerImageQualifier(ShapeQualifier):
    """A subclass, so ``check_batch`` takes the per-image loop instead
    of the batched engine."""


def make_pipeline(
    architecture: str = "parallel", per_image_qualifier: bool = False
):
    model = small_cnn(n_classes=8, input_size=IMAGE_SIZE)
    pipeline = build_pipeline(
        PipelineConfig(
            architecture=architecture,
            pin_sobel=architecture == "integrated",
            name=f"serving-test-{architecture}",
        ),
        model,
    )
    if per_image_qualifier:
        pipeline.hybrid.qualifier = PerImageQualifier()
    return pipeline


@pytest.fixture(scope="module")
def pipeline():
    return make_pipeline()
