"""Parity suite for the batched qualifier engine.

The contract under test (see :mod:`repro.core.qualifier_batch`):
``check_batch`` / ``check_feature_map_batch`` -- and both hybrid
architectures' ``infer_batch`` through them -- are **bitwise**
identical to per-image scalar calls: verdict flags, distances (on
storage bits), words and decisions, including degenerate inputs, and
both refuse the same malformed shapes.
"""

from __future__ import annotations

import functools
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PipelineConfig, QualifierConfig, build_pipeline
from repro.core import qualifier_batch
from repro.core.qualifier import QualifierVerdict, ShapeQualifier
from repro.data import render_sign
from repro.models import small_cnn
from repro.vision.edges import edge_map_batch, to_grayscale
from repro.vision.filters import SOBEL_X, SOBEL_Y, correlate2d


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_verdicts_bitwise_equal(got, want):
    __tracebackhide__ = True
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert g.matches == w.matches, f"matches differ at {index}"
        assert bits(g.distance) == bits(w.distance), (
            f"distance bits differ at {index}: {g.distance!r} vs "
            f"{w.distance!r}"
        )
        assert g.word == w.word, f"word differs at {index}"
        assert g.reliable == w.reliable, f"reliable differs at {index}"


@pytest.fixture(scope="module")
def sign_batch():
    """All eight classes at two rotations: octagons, circles,
    triangles ... through the same stack."""
    return np.stack([
        render_sign(i % 8, size=96, rotation=np.deg2rad(5 * i - 20))
        for i in range(16)
    ]).astype(np.float32)


@pytest.fixture(scope="module")
def feature_batch(sign_batch):
    """Sobel-pair responses, the integrated hybrid's bifurcated view."""
    maps = []
    for image in sign_batch[:8]:
        grey = to_grayscale(image)
        maps.append(np.stack([
            correlate2d(grey, SOBEL_X), correlate2d(grey, SOBEL_Y)
        ]))
    return np.stack(maps)


class TestCheckBatchParity:
    @pytest.mark.parametrize("redundant", [True, False])
    def test_bitwise_parity_across_shapes(self, sign_batch, redundant):
        qualifier = ShapeQualifier(redundant=redundant)
        batch = qualifier.check_batch(sign_batch)
        singles = [qualifier.check(image) for image in sign_batch]
        assert_verdicts_bitwise_equal(batch, singles)

    @pytest.mark.parametrize("size", [64, 96, 128])
    def test_parity_across_sizes(self, size):
        """The exactness argument must not depend on geometry (BLAS
        kernel selection by problem size burned the first frontend
        draft; this pins the fix)."""
        images = np.stack([
            render_sign(i, size=size, rotation=np.deg2rad(3 * i))
            for i in range(6)
        ])
        qualifier = ShapeQualifier()
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(images),
            [qualifier.check(image) for image in images],
        )

    def test_parity_other_shape_and_params(self, sign_batch):
        qualifier = ShapeQualifier(
            shape="triangle", word_length=16, alphabet_size=6,
            threshold=2.5,
        )
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(sign_batch),
            [qualifier.check(image) for image in sign_batch],
        )

    def test_fractional_paa_parity(self, sign_batch):
        """n_samples not divisible by word_length exercises the
        fractional-frame PAA, vectorized across the batch with the
        scalar accumulation order."""
        qualifier = ShapeQualifier(word_length=24, n_samples=100)
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(sign_batch),
            [qualifier.check(image) for image in sign_batch],
        )

    def test_grayscale_input_parity(self, sign_batch):
        grey = np.stack([to_grayscale(image) for image in sign_batch])
        qualifier = ShapeQualifier()
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(grey),
            [qualifier.check(image) for image in grey],
        )

    def test_explicit_edge_threshold_parity(self, sign_batch):
        qualifier = ShapeQualifier(edge_threshold=1.25)
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(sign_batch),
            [qualifier.check(image) for image in sign_batch],
        )

    def test_empty_batch(self):
        assert ShapeQualifier().check_batch(
            np.zeros((0, 3, 32, 32), dtype=np.float32)
        ) == []

    def test_scalar_engine_matches(self, sign_batch):
        """Both paths ``check_batch`` can take agree bitwise: the
        batched engine (stock qualifier) and the per-image loop (any
        subclass)."""

        class PerImageQualifier(ShapeQualifier):
            pass

        assert_verdicts_bitwise_equal(
            ShapeQualifier().check_batch(sign_batch),
            PerImageQualifier().check_batch(sign_batch),
        )


class TestFeatureMapBatchParity:
    def test_bitwise_parity(self, feature_batch):
        qualifier = ShapeQualifier()
        batch = qualifier.check_feature_map_batch(feature_batch)
        singles = [
            qualifier.check_feature_map(fm) for fm in feature_batch
        ]
        assert_verdicts_bitwise_equal(batch, singles)

    def test_single_map_layouts(self, feature_batch):
        qualifier = ShapeQualifier()
        for stack in (feature_batch[:, :1], feature_batch[:, 0]):
            assert_verdicts_bitwise_equal(
                qualifier.check_feature_map_batch(stack),
                [qualifier.check_feature_map(fm) for fm in stack],
            )

    def test_too_many_maps_rejected(self, feature_batch):
        wide = np.concatenate([feature_batch, feature_batch], axis=1)
        with pytest.raises(ValueError, match="expected"):
            ShapeQualifier().check_feature_map_batch(wide)


class TestDegenerateInputs:
    """Empty edge masks, sub-3-point boundaries, flat series and
    all-background images must match scalar verdicts, never raise."""

    def test_all_zero_images(self):
        qualifier = ShapeQualifier()
        images = np.zeros((3, 3, 32, 32), dtype=np.float32)
        batch = qualifier.check_batch(images)
        assert_verdicts_bitwise_equal(
            batch, [qualifier.check(image) for image in images]
        )
        for verdict in batch:
            assert not verdict.matches and verdict.reliable
            assert verdict.distance == float("inf")

    def test_constant_images_have_empty_edge_maps(self):
        qualifier = ShapeQualifier()
        images = np.full((2, 3, 24, 24), 0.6, dtype=np.float32)
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(images),
            [qualifier.check(image) for image in images],
        )

    def test_boundary_under_three_points(self):
        """An edge threshold at the exact magnitude peak leaves a
        single-pixel mask: the traced boundary has one point, below
        the 3-point floor of the distance series."""
        from repro.vision.edges import sobel_edges

        rng = np.random.default_rng(7)
        images = rng.random((2, 16, 16)).astype(np.float32)
        peak = float(min(sobel_edges(image).max() for image in images))
        qualifier = ShapeQualifier(edge_threshold=peak)
        # The construction must actually exercise the degenerate
        # branch: at least one image's mask is a sub-3-point contour.
        assert any(
            (sobel_edges(image) >= peak).sum() < 3 for image in images
        )
        batch = qualifier.check_batch(images)
        assert_verdicts_bitwise_equal(
            batch, [qualifier.check(image) for image in images]
        )
        degenerate = [v for v in batch if v.word == ""]
        assert degenerate, "expected at least one sub-3-point verdict"
        for verdict in degenerate:
            assert not verdict.matches
            assert verdict.distance == float("inf")

    def test_flat_series_circle(self, sign_batch):
        """A circle's centroid-distance series is flat; z-normalise
        maps it to zeros in both paths."""
        qualifier = ShapeQualifier(shape="circle", threshold=1.0)
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(sign_batch),
            [qualifier.check(image) for image in sign_batch],
        )

    def test_all_background_feature_maps(self):
        qualifier = ShapeQualifier()
        maps = np.zeros((3, 2, 20, 20), dtype=np.float32)
        maps[1] = -0.0  # negative zero peak is still "no response"
        batch = qualifier.check_feature_map_batch(maps)
        assert_verdicts_bitwise_equal(
            batch, [qualifier.check_feature_map(fm) for fm in maps]
        )
        for verdict in batch:
            assert verdict == QualifierVerdict()

    def test_blank_image_with_non_positive_edge_threshold(self):
        """The scalar edge map blanks zero-magnitude images before the
        threshold comparison; an explicit threshold <= 0 must not turn
        a featureless frame into an all-foreground mask (which would
        let a blank image qualify)."""
        qualifier = ShapeQualifier(edge_threshold=0.0)
        images = np.zeros((2, 3, 24, 24), dtype=np.float32)
        batch = qualifier.check_batch(images)
        assert_verdicts_bitwise_equal(
            batch, [qualifier.check(image) for image in images]
        )
        for verdict in batch:
            assert not verdict.matches
            assert verdict.word == ""

    def test_mixed_degenerate_and_real(self, sign_batch):
        """Degenerate and live images interleaved in one batch."""
        qualifier = ShapeQualifier()
        images = np.concatenate([
            np.zeros((1,) + sign_batch.shape[1:], dtype=np.float32),
            sign_batch[:3],
            np.full((1,) + sign_batch.shape[1:], 2.0, dtype=np.float32),
        ])
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(images),
            [qualifier.check(image) for image in images],
        )


@functools.cache
def _composition_pool() -> np.ndarray:
    """Images the composition property draws batches from: signs of
    several shapes and rotations plus degenerate frames (blank,
    constant, a single bright pixel, noise)."""
    signs = [
        render_sign(i % 8, size=64, rotation=np.deg2rad(11 * i - 30))
        for i in range(6)
    ]
    blank = np.zeros_like(signs[0])
    constant = np.full_like(signs[0], 0.5)
    pixel = blank.copy()
    pixel[:, 32, 32] = 1.0
    noise = np.random.default_rng(5).random(blank.shape)
    return np.stack(
        signs + [blank, constant, pixel, noise]
    ).astype(np.float32)


def _verdict_key(result: tuple[bool, float, str]) -> tuple:
    matches, distance, word = result
    return matches, bits(distance), word


class TestBatchCompositionStability:
    """The batched engine evaluates each image once and promises what
    n scalar calls return, so every batched stage must be per-image
    stable under batch composition: an image's verdict may not depend
    on which other images -- or how many copies of itself -- share
    its batch."""

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.integers(0, 9), min_size=1, max_size=6))
    def test_verdicts_stable_under_batch_composition(self, picks):
        # Index lists cover subsets, permutations and duplicates.
        images = _composition_pool()[picks]
        qualifier = ShapeQualifier()
        masks = edge_map_batch(images, threshold=qualifier.edge_threshold)
        together = qualifier_batch._qualify_masks(qualifier, masks)
        for i in range(len(images)):
            alone = qualifier_batch._qualify_masks(
                qualifier, masks[i : i + 1]
            )[0]
            assert _verdict_key(together[i]) == _verdict_key(alone)
        assert_verdicts_bitwise_equal(
            qualifier.check_batch(images),
            [qualifier.check(image) for image in images],
        )


class TestMalformedImages:
    """``check`` and ``check_batch`` share one shape check: an image is
    ``(h, w)`` or ``(c, h, w)`` with no empty axis, and anything else
    raises a ``ValueError`` naming the shape before any stage runs --
    the per-image loop never returns a miss for an image the batched
    engine refuses."""

    @pytest.mark.parametrize("shape", [
        (5,),          # 1-D
        (3, 0, 4),     # zero height
        (3, 4, 0),     # zero width
        (0, 4),        # zero height, greyscale
        (2, 3, 4, 4),  # 4-D
    ])
    def test_check_and_check_batch_refuse_alike(self, shape):
        qualifier = ShapeQualifier()
        image = np.ones(shape, dtype=np.float32)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            qualifier.check(image)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            qualifier.check_batch(np.stack([image, image]))


class TestEnginePolicy:
    """One policy, no knob: the batched engine runs exactly when
    ``batched_is_exact`` holds."""

    def test_auto_is_exact_for_stock_qualifier(self):
        assert qualifier_batch.batched_is_exact(ShapeQualifier())

    def test_subclass_falls_back_to_scalar(self, monkeypatch, sign_batch):
        class TightQualifier(ShapeQualifier):
            def _distance(self, word: str) -> float:
                return 0.0

        qualifier = TightQualifier()
        assert not qualifier_batch.batched_is_exact(qualifier)

        def exploding(*args, **kwargs):  # pragma: no cover
            raise AssertionError("batched engine must not run")

        monkeypatch.setattr(qualifier_batch, "batched_check", exploding)
        batch = qualifier.check_batch(sign_batch[:3])
        singles = [qualifier.check(image) for image in sign_batch[:3]]
        assert_verdicts_bitwise_equal(batch, singles)

    def test_auto_dispatches_batched_for_feature_maps(
        self, monkeypatch, feature_batch
    ):
        """The dispatch audit: the policy must route feature maps
        through the batched engine exactly as it routes images.
        A silent per-map scalar degradation -- the integrated-hybrid
        batch regression's prime suspect -- fails here."""
        calls = {"batched": 0}
        real = qualifier_batch.batched_check_feature_map

        def spying(qualifier, maps):
            calls["batched"] += 1
            return real(qualifier, maps)

        monkeypatch.setattr(
            qualifier_batch, "batched_check_feature_map", spying
        )
        qualifier = ShapeQualifier()
        got = qualifier.check_feature_map_batch(feature_batch)
        assert calls["batched"] == 1
        singles = [
            qualifier.check_feature_map(fm) for fm in feature_batch
        ]
        assert_verdicts_bitwise_equal(got, singles)

    def test_feature_map_dispatch_honours_scalar_pins(
        self, monkeypatch, feature_batch
    ):
        """The same policy that degrades images of a subclassed
        qualifier to the scalar loop degrades its feature maps too."""

        def exploding(*args, **kwargs):  # pragma: no cover
            raise AssertionError("batched engine must not run")

        monkeypatch.setattr(
            qualifier_batch, "batched_check_feature_map", exploding
        )

        class TightQualifier(ShapeQualifier):
            def _distance(self, word: str) -> float:
                return 0.0

        qualifier = TightQualifier()
        batch = qualifier.check_feature_map_batch(feature_batch[:2])
        assert_verdicts_bitwise_equal(batch, [
            qualifier.check_feature_map(fm) for fm in feature_batch[:2]
        ])

    def test_config_engine_reaches_qualifier(self):
        """A built pipeline's qualifier is on the exact policy: no
        config field can switch the batched engine off."""
        pipeline = build_pipeline(
            PipelineConfig(), small_cnn(32, 8, conv1_filters=8)
        )
        assert qualifier_batch.batched_is_exact(pipeline.qualifier)
        assert not hasattr(pipeline.qualifier, "engine")

    def test_qualifier_config_round_trips_engine(self):
        """A serialized config still carrying the retired ``engine``
        key fails loudly instead of being silently dropped."""
        data = QualifierConfig().to_dict()
        assert "engine" not in data
        with pytest.raises(ValueError, match="unknown keys"):
            QualifierConfig.from_dict({**data, "engine": "scalar"})


class TestHybridWiring:
    """infer_batch of both architectures rides the batched engine and
    stays bitwise identical to per-image infer (the broad matrix lives
    in tests/api/test_batch_parity.py; this pins the engine wiring)."""

    def test_parallel_infer_is_a_batch_of_one(self, monkeypatch, sign_batch):
        """The parallel hybrid has one inference path: ``infer``
        qualifies through ``check_batch``, never the scalar ``check``."""
        calls = {"batch": 0}
        real = ShapeQualifier.check_batch

        def spying(self, images):
            calls["batch"] += 1
            assert len(images) == 1
            return real(self, images)

        def exploding(self, image):  # pragma: no cover
            raise AssertionError("scalar check must not run")

        pipeline = build_pipeline(
            PipelineConfig(architecture="parallel"),
            small_cnn(96, 8, conv1_filters=8),
        )
        monkeypatch.setattr(ShapeQualifier, "check_batch", spying)
        monkeypatch.setattr(ShapeQualifier, "check", exploding)
        pipeline.infer(sign_batch[0])
        pipeline.infer(sign_batch[1], qualifier_view=sign_batch[2])
        assert calls["batch"] == 2

    def test_parallel_uses_batched_qualifier(self, monkeypatch, sign_batch):
        calls = {"batch": 0}
        real = ShapeQualifier.check_batch

        def spying(self, images):
            calls["batch"] += 1
            return real(self, images)

        monkeypatch.setattr(ShapeQualifier, "check_batch", spying)
        pipeline = build_pipeline(
            PipelineConfig(architecture="parallel"),
            small_cnn(96, 8, conv1_filters=8),
        )
        results = pipeline.infer_batch(sign_batch[:4])
        assert calls["batch"] == 1
        singles = [pipeline.infer(image) for image in sign_batch[:4]]
        for got, want in zip(results, singles):
            assert got.decision == want.decision
            assert bits(got.verdict.distance) == bits(want.verdict.distance)
            assert got.verdict.word == want.verdict.word

    def test_parallel_ragged_qualifier_views(self, sign_batch):
        """Per-scene qualifier renderings may differ in resolution;
        ragged view lists fall back to per-image qualification instead
        of raising on the stack."""
        from repro.data import render_sign

        pipeline = build_pipeline(
            PipelineConfig(architecture="parallel"),
            small_cnn(96, 8, conv1_filters=8),
        )
        views = [
            render_sign(0, size=128),
            render_sign(1, size=64),
            render_sign(2, size=96),
        ]
        results = pipeline.infer_batch(
            sign_batch[:3], qualifier_views=views
        )
        singles = [
            pipeline.infer(image, qualifier_view=view)
            for image, view in zip(sign_batch[:3], views)
        ]
        for got, want in zip(results, singles):
            assert got.decision == want.decision
            assert bits(got.verdict.distance) == bits(want.verdict.distance)
            assert got.verdict.word == want.verdict.word

    def test_integrated_uses_batched_feature_qualifier(
        self, monkeypatch, sign_batch
    ):
        calls = {"batch": 0}
        real = ShapeQualifier.check_feature_map_batch

        def spying(self, maps):
            calls["batch"] += 1
            return real(self, maps)

        monkeypatch.setattr(
            ShapeQualifier, "check_feature_map_batch", spying
        )
        pipeline = build_pipeline(
            PipelineConfig(architecture="integrated", pin_sobel=True),
            small_cnn(96, 8, conv1_filters=8),
        )
        small = sign_batch[:2]
        results = pipeline.infer_batch(small)
        assert calls["batch"] == 1
        singles = [pipeline.infer(image) for image in small]
        for got, want in zip(results, singles):
            assert got.decision == want.decision
            assert bits(got.verdict.distance) == bits(want.verdict.distance)
            assert got.verdict.word == want.verdict.word
