"""Chaos-test fixtures: one tiny pipeline per architecture, built
once per session (experiments need a live server, so speed matters)."""

from __future__ import annotations

import pytest

from repro.api import PipelineConfig, build_pipeline
from repro.models.smallcnn import small_cnn

IMAGE_SIZE = 20


def make_chaos_pipeline(architecture: str = "parallel"):
    model = small_cnn(n_classes=8, input_size=IMAGE_SIZE)
    return build_pipeline(
        PipelineConfig(
            architecture=architecture,
            pin_sobel=architecture == "integrated",
            name=f"chaos-test-{architecture}",
        ),
        model,
    )


@pytest.fixture(scope="session")
def parallel_pipeline():
    return make_chaos_pipeline("parallel")


@pytest.fixture(scope="session")
def integrated_pipeline():
    return make_chaos_pipeline("integrated")
