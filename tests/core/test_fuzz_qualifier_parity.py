"""Randomized differential parity: scalar vs batched qualifier.

The batched engine's contract -- ``check_batch`` bitwise equal to per
image ``check()`` calls, for any batch composition -- asserted over
fuzzed inputs from :mod:`tests.support.fuzz` instead of hand-picked
examples.  Shapes, dtypes, batch sizes and degenerate content (empty
edge maps, constant images, single pixels) all vary per case; every
case is replayable from its id alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.qualifier import ShapeQualifier
from tests.support.fuzz import (
    assert_verdicts_bitwise_equal,
    differential_cases,
    random_feature_map_batch,
    random_image_batch,
)


def _random_qualifier(rng: np.random.Generator) -> ShapeQualifier:
    """A qualifier with fuzzed construction parameters (kept within
    the template-generating envelope)."""
    shape = str(rng.choice(["octagon", "triangle", "square", "circle"]))
    word_length = int(rng.choice([16, 32]))
    return ShapeQualifier(
        shape=shape,
        word_length=word_length,
        alphabet_size=int(rng.choice([4, 8])),
        threshold=float(rng.uniform(1.0, 5.0)),
        redundant=bool(rng.random() < 0.5),
        n_samples=128,
    )


@pytest.mark.parametrize("rng", differential_cases(10))
def test_check_batch_matches_scalar_loop(rng):
    images = random_image_batch(rng)
    batched = _random_qualifier(rng)
    scalar = ShapeQualifier(
        shape=batched.shape,
        word_length=batched.encoder.word_length,
        alphabet_size=batched.encoder.alphabet_size,
        threshold=batched.threshold,
        redundant=batched.redundant,
        n_samples=batched.n_samples,
    )
    got = batched.check_batch(images)
    want = [scalar.check(image) for image in images]
    assert len(got) == len(want) == len(images)
    for i, (g, w) in enumerate(zip(got, want)):
        assert_verdicts_bitwise_equal(
            g, w, context=f"image {i} of {images.shape}"
        )


@pytest.mark.parametrize("rng", differential_cases(6, root_seed=7202611))
def test_check_feature_map_batch_matches_scalar_loop(rng):
    feature_maps = random_feature_map_batch(rng)
    batched = _random_qualifier(rng)
    scalar = ShapeQualifier(
        shape=batched.shape,
        word_length=batched.encoder.word_length,
        alphabet_size=batched.encoder.alphabet_size,
        threshold=batched.threshold,
        redundant=batched.redundant,
        n_samples=batched.n_samples,
    )
    got = batched.check_feature_map_batch(feature_maps)
    want = [scalar.check_feature_map(fm) for fm in feature_maps]
    assert len(got) == len(want) == len(feature_maps)
    for i, (g, w) in enumerate(zip(got, want)):
        assert_verdicts_bitwise_equal(
            g, w, context=f"map {i} of {feature_maps.shape}"
        )


@pytest.mark.parametrize("rng", differential_cases(4, root_seed=555001))
def test_auto_engine_matches_scalar_loop(rng):
    """The guarantee end users see, at the default construction: a
    stock qualifier's ``check_batch`` is the batched engine."""
    images = random_image_batch(rng)
    qualifier = ShapeQualifier(redundant=True)
    for i, (g, w) in enumerate(zip(
        qualifier.check_batch(images),
        [qualifier.check(image) for image in images],
    )):
        assert_verdicts_bitwise_equal(g, w, context=f"image {i}")
