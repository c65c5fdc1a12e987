"""Shape qualifier: templates, calibration, redundant execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import qualifier_batch
from repro.core.qualifier import (
    QualifierVerdict,
    ShapeQualifier,
    octagon_template_word,
    shape_template_word,
    shape_template_words,
)
from repro.data import SIGN_CLASSES, render_sign
from repro.sax.sax import SaxEncoder
from repro.vision.edges import to_grayscale
from repro.vision.filters import SOBEL_X, SOBEL_Y, correlate2d


@pytest.fixture(scope="module")
def qualifier():
    return ShapeQualifier()


class TestTemplates:
    def test_octagon_word_deterministic(self):
        assert octagon_template_word() == octagon_template_word()

    def test_phase_variants_nonempty_and_unique(self):
        encoder = SaxEncoder(32, 8)
        variants = shape_template_words("octagon", encoder)
        assert 1 <= len(variants) <= 4
        assert len(set(variants)) == len(variants)

    def test_different_shapes_different_words(self):
        encoder = SaxEncoder(32, 8)
        octagon = set(shape_template_words("octagon", encoder))
        triangle = set(shape_template_words("triangle", encoder))
        assert octagon.isdisjoint(triangle)

    def test_circle_template_flat(self):
        encoder = SaxEncoder(32, 8)
        word = shape_template_word("circle", encoder)
        assert len(set(word)) == 1  # one symbol throughout

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            shape_template_word("heptadecagon", SaxEncoder(32, 8))


class TestCalibration:
    """Threshold separation on the synthetic data: the reliability
    claim of the qualifier rests on this margin."""

    def test_stop_signs_match_across_rotations(self, qualifier):
        for deg in (-12.0, -5.0, 0.0, 7.0, 12.0):
            image = render_sign(0, size=128, rotation=np.deg2rad(deg))
            verdict = qualifier.check(image)
            assert verdict.matches, f"stop at {deg} deg must match"
            assert verdict.distance <= qualifier.threshold

    def test_all_other_classes_rejected(self, qualifier):
        for index, spec in enumerate(SIGN_CLASSES):
            if spec.name == "stop":
                continue
            image = render_sign(index, size=128)
            verdict = qualifier.check(image)
            assert not verdict.matches, f"{spec.name} must not match"

    def test_margin_is_comfortable(self, qualifier):
        """Non-octagons stay at least 2x the threshold away."""
        worst = min(
            qualifier.check(render_sign(i, size=128)).distance
            for i, spec in enumerate(SIGN_CLASSES)
            if spec.name != "stop"
        )
        assert worst >= 2.0 * qualifier.threshold

    def test_blank_image_rejected(self, qualifier):
        blank = np.zeros((3, 128, 128), dtype=np.float32)
        verdict = qualifier.check(blank)
        assert not verdict.matches
        assert verdict.distance == float("inf")


class TestVerdict:
    def test_truthiness(self):
        assert QualifierVerdict(matches=True, distance=0.0, word="w")
        assert not QualifierVerdict(matches=False, distance=9.0, word="w")
        assert not QualifierVerdict(matches=True, distance=0.0, word="w",
                                   reliable=False)

    def test_word_exposed_for_explainability(self, qualifier, stop_image):
        verdict = qualifier.check(stop_image)
        assert len(verdict.word) == qualifier.encoder.word_length


@pytest.fixture(scope="module")
def stop_maps(stop_image):
    """Sobel-pair responses of the stop sign: the integrated hybrid's
    bifurcated view, the input of ``check_feature_map``."""
    grey = to_grayscale(stop_image)
    return np.stack([
        correlate2d(grey, SOBEL_X), correlate2d(grey, SOBEL_Y)
    ])


class FaultyQualifier(ShapeQualifier):
    """Counts the scalar evaluations through ``_distance`` -- the hook
    ``check`` and ``check_feature_map`` both call once per evaluation
    -- and nudges the distance by the call number on the calls
    ``corrupt`` selects, so no two corrupted runs agree."""

    def __init__(self, corrupt) -> None:
        super().__init__()
        self.corrupt = corrupt
        self.calls = 0

    def _distance(self, word: str) -> float:
        self.calls += 1
        distance = super()._distance(word)
        if self.corrupt(self.calls):
            distance += self.calls
        return distance


def _scalar(qualifier, path, stop_image, stop_maps):
    if path == "check":
        return qualifier.check(stop_image)
    return qualifier.check_feature_map(stop_maps)


class TestRedundantExecution:
    """The scalar path executes twice inside a checkpointed segment;
    the batched engine that exact types take evaluates each image
    once."""

    def test_redundant_and_plain_agree_on_clean_input(self, stop_image):
        redundant = ShapeQualifier(redundant=True).check(stop_image)
        plain = ShapeQualifier(redundant=False).check(stop_image)
        assert redundant.matches == plain.matches
        assert redundant.distance == plain.distance

    def test_verdict_reliable_flag_on_clean_execution(self, qualifier,
                                                      stop_image):
        assert qualifier.check(stop_image).reliable

    @pytest.mark.parametrize("path", ["check", "check_feature_map"])
    def test_one_off_disagreement_rolls_back_once(
        self, path, stop_image, stop_maps
    ):
        """A fault in the first run only: the two runs disagree, the
        segment rolls back once, and the re-execution's agreeing runs
        give the clean verdict."""
        qualifier = FaultyQualifier(corrupt=lambda call: call == 1)
        verdict = _scalar(qualifier, path, stop_image, stop_maps)
        clean = _scalar(ShapeQualifier(), path, stop_image, stop_maps)
        assert qualifier.calls == 4  # run, compare, rerun, compare
        assert verdict == clean
        assert verdict.reliable and verdict.matches

    @pytest.mark.parametrize("path", ["check", "check_feature_map"])
    def test_persistent_disagreement_goes_unavailable(
        self, path, stop_image, stop_maps
    ):
        """Every run disagrees: after its one rollback the segment
        gives up, and the verdict degrades to unavailable -- never an
        exception."""
        qualifier = FaultyQualifier(corrupt=lambda call: True)
        verdict = _scalar(qualifier, path, stop_image, stop_maps)
        assert qualifier.calls == 4
        assert verdict == QualifierVerdict.unavailable()

    @pytest.mark.parametrize("path", ["check", "check_feature_map"])
    def test_software_error_in_hook_propagates(
        self, path, stop_image, stop_maps
    ):
        """Only persistent disagreement is a detected execution fault;
        a bug in a subclass hook surfaces instead of posing as an
        unavailable verdict."""

        class BrokenQualifier(ShapeQualifier):
            def _distance(self, word: str) -> float:
                raise RuntimeError("broken hook")

        with pytest.raises(RuntimeError, match="broken hook"):
            _scalar(BrokenQualifier(), path, stop_image, stop_maps)

    def test_subclass_executes_twice_through_check_batch(self):
        """A subclass may override hooks that need not repeat
        themselves, so ``check_batch`` keeps it on the scalar path:
        two executions per image."""
        calls = []

        class CountingQualifier(ShapeQualifier):
            def _evaluate_once(self, image):
                calls.append(1)
                return super()._evaluate_once(image)

        images = np.stack([render_sign(i, size=64) for i in range(3)])
        got = CountingQualifier().check_batch(images)
        assert len(calls) == 2 * len(images)
        assert got == ShapeQualifier().check_batch(images)

    def test_stock_qualifier_evaluates_each_image_once(
        self, monkeypatch, stop_maps
    ):
        """Exact types take the batched engine, which hands the shared
        contour stage ``n`` masks -- one lane, no doubled copy."""
        sizes = []
        real = qualifier_batch._qualify_masks

        def spying(qualifier, masks):
            sizes.append(len(masks))
            return real(qualifier, masks)

        monkeypatch.setattr(qualifier_batch, "_qualify_masks", spying)
        qualifier = ShapeQualifier()
        images = np.stack([render_sign(i, size=64) for i in range(3)])
        qualifier.check_batch(images)
        qualifier.check_feature_map_batch(np.stack([stop_maps] * 2))
        assert sizes == [3, 2]


class TestFeatureMapPath:
    def test_two_map_magnitude_form(self, qualifier):
        from repro.nn import Conv2D
        from repro.vision.filters import sobel_axis_stack

        conv = Conv2D(3, 4, 7, stride=2, name="c")
        conv.set_filter(0, sobel_axis_stack("x", 7, 3))
        conv.set_filter(1, sobel_axis_stack("y", 7, 3))
        image = render_sign(0, size=128, rotation=np.deg2rad(5))
        maps = conv.forward(image[None])[0, :2]
        assert qualifier.check_feature_map(maps).matches

    def test_rejects_too_many_maps(self, qualifier, rng):
        with pytest.raises(ValueError):
            qualifier.check_feature_map(
                rng.standard_normal((3, 10, 10))
            )

    def test_zero_map_rejected(self, qualifier):
        verdict = qualifier.check_feature_map(np.zeros((16, 16)))
        assert not verdict.matches

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ShapeQualifier(threshold=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"threshold": float("nan")},
        {"threshold": float("inf")},
        {"edge_threshold": float("nan")},
        {"edge_threshold": float("inf")},
        {"edge_threshold": float("-inf")},
    ])
    def test_non_finite_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ShapeQualifier(**kwargs)
