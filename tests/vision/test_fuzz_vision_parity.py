"""Randomized differential parity for the batched vision primitives.

The batched qualifier engine stands on three vectorized primitives
whose outputs must equal their scalar references exactly:

* :func:`largest_component_batch` (root sizes of one union-find over
  the foreground pixels) vs BFS ``label_components`` +
  ``largest_component``;
* :func:`trace_boundary_batch` (table-driven Moore walk) vs the
  eight-probe ``trace_boundary``, also on every 4x4 mask and on stacks
  not reduced to their largest component;
* :func:`centroid_distance_series_batch` (length-grouped row-wise
  extraction) vs per-contour ``centroid_distance_series``.

Fuzzed masks cover empty, full, single-pixel, sparse-fragment and
dense-blob geometries at random rectangle sizes.

The frontend batch forms (grayscale, correlation, Sobel, edge maps,
labelling, dilation) carry the same contract and are fuzzed here
against their scalar references on mixed rendered/noise/degenerate
image batches; the batched Sobel also on stacks that overflow to
inf/NaN inside the taps and on stacks holding inf or NaN pixels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vision.contours import (
    label_components,
    label_components_batch,
    largest_component,
    largest_component_batch,
    trace_boundary,
    trace_boundary_batch,
)
from repro.vision.edges import (
    edge_map,
    edge_map_batch,
    sobel_edges,
    sobel_edges_batch,
    to_grayscale,
    to_grayscale_batch,
)
from repro.vision.filters import (
    correlate2d,
    correlate2d_batch,
    gradient_magnitude,
    gradient_magnitude_batch,
)
from repro.vision.morphology import binary_dilate, binary_dilate_batch
from repro.vision.series import (
    centroid_distance_series,
    centroid_distance_series_batch,
)
from tests.support.fuzz import (
    assert_arrays_bitwise_equal,
    case_rng,
    differential_cases,
    random_image_batch,
    random_mask_batch,
)


@pytest.mark.parametrize("rng", differential_cases(8, root_seed=314159))
def test_vision_primitives_match_scalar_references(rng):
    masks = random_mask_batch(rng)
    components, found = largest_component_batch(masks)
    boundaries = trace_boundary_batch(components)
    contours = []
    for i, mask in enumerate(masks):
        context = f"mask {i} of {masks.shape}"
        if not mask.any():
            assert not found[i], context
            assert not components[i].any(), context
            assert boundaries[i] is None, context
            continue
        assert found[i], context
        labels, count = label_components(mask)
        want_component, area = largest_component(labels)
        assert_arrays_bitwise_equal(
            components[i], want_component, context
        )
        want_points = trace_boundary(want_component)
        assert boundaries[i] is not None, context
        assert_arrays_bitwise_equal(
            boundaries[i], want_points, context
        )
        if len(want_points) >= 3:
            contours.append(want_points)
    if contours:
        n_samples = int(rng.choice([64, 128]))
        got_series = centroid_distance_series_batch(
            contours, n_samples=n_samples
        )
        for j, points in enumerate(contours):
            assert_arrays_bitwise_equal(
                got_series[j],
                centroid_distance_series(points, n_samples=n_samples),
                f"series {j}",
            )


@pytest.mark.parametrize("rng", differential_cases(8, root_seed=628318))
def test_vision_frontend_batches_match_scalar_references(rng):
    images = random_image_batch(rng)
    kernel = rng.normal(size=(3, 3))
    iterations = int(rng.integers(0, 3))
    threshold = float(rng.uniform(0.05, 0.5))

    gray = to_grayscale_batch(images)
    corr = correlate2d_batch(gray, kernel)
    magnitude = gradient_magnitude_batch(gray)
    edges = sobel_edges_batch(images)
    masks_default = edge_map_batch(images)
    masks_fixed = edge_map_batch(images, threshold=threshold)
    labels, counts = label_components_batch(masks_default)
    dilated = binary_dilate_batch(masks_default, iterations=iterations)

    for i, image in enumerate(images):
        context = f"image {i} of {images.shape}"
        want_gray = to_grayscale(image)
        assert_arrays_bitwise_equal(gray[i], want_gray, context)
        assert_arrays_bitwise_equal(
            corr[i], correlate2d(want_gray, kernel), context
        )
        assert_arrays_bitwise_equal(
            magnitude[i], gradient_magnitude(want_gray), context
        )
        assert_arrays_bitwise_equal(edges[i], sobel_edges(image), context)
        assert_arrays_bitwise_equal(
            masks_default[i], edge_map(image), context
        )
        assert_arrays_bitwise_equal(
            masks_fixed[i], edge_map(image, threshold=threshold), context
        )
        want_labels, want_count = label_components(masks_default[i])
        assert counts[i] == want_count, context
        assert_arrays_bitwise_equal(labels[i], want_labels, context)
        assert_arrays_bitwise_equal(
            dilated[i],
            binary_dilate(masks_default[i], iterations=iterations),
            context,
        )


def _huge_stack(rng: np.random.Generator) -> np.ndarray:
    """Finite pixels up to ~3e38: ``x + x`` and the tap sums overflow
    to inf, and inf - inf turns a tap sum into NaN."""
    n, h, w = (int(v) for v in rng.integers(2, 12, size=3))
    return (rng.uniform(-3e38, 3e38, size=(n, h, w))).astype(np.float32)


#: Non-finite pixel kinds.  A stack draws from one kind only: where
#: an input NaN meets a NaN the taps generate (``0 * inf``,
#: ``inf - inf``), NumPy's loops pick which of the two NaN words to
#: keep by array shape, so ``correlate2d_batch`` and ``correlate2d``
#: can disagree in the NaN sign (the "NaN payloads across engines"
#: ROADMAP item).  With one kind, every NaN in a stack is one word.
_NON_FINITE_KINDS = ((np.inf, -np.inf), (np.nan,))


def _non_finite_stack(rng: np.random.Generator) -> np.ndarray:
    """Ordinary pixels with +-inf, or NaN, scattered in."""
    n, h, w = (int(v) for v in rng.integers(2, 12, size=3))
    images = rng.standard_normal((n, h, w)).astype(np.float32)
    kind = _NON_FINITE_KINDS[int(rng.integers(len(_NON_FINITE_KINDS)))]
    flat = images.reshape(-1)
    spots = rng.choice(flat.size, size=3 * n, replace=False)
    flat[spots] = rng.choice(kind, size=len(spots))
    return images


def _mixed_stack(rng: np.random.Generator) -> np.ndarray:
    """Finite images with one non-finite image among them."""
    n, h, w = (int(v) for v in rng.integers(3, 12, size=3))
    images = rng.standard_normal((n, h, w)).astype(np.float32)
    bad = int(rng.integers(n))
    kind = _NON_FINITE_KINDS[int(rng.integers(len(_NON_FINITE_KINDS)))]
    for _ in range(int(rng.integers(1, 4))):
        r, c = (int(v) for v in rng.integers(0, (h, w)))
        images[bad, r, c] = rng.choice(kind)
    return images


_EXTREME_STACKS = {
    "huge": _huge_stack,
    "non_finite": _non_finite_stack,
    "mixed": _mixed_stack,
}


@pytest.mark.parametrize("kind", sorted(_EXTREME_STACKS))
@pytest.mark.parametrize("index", range(4), ids=lambda i: f"case{i:02d}")
def test_sobel_batch_matches_scalar_on_extreme_stacks(kind, index):
    """The finite-stack Sobel schedule at overflow, and the non-finite
    fallback, equal the scalar reference bit for bit per image."""
    images = _EXTREME_STACKS[kind](case_rng(index, root_seed=271828))
    finite = images[np.isfinite(images)]
    threshold = float(np.abs(finite).max()) if finite.size else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = gradient_magnitude_batch(images)
        masks_default = edge_map_batch(images)
        masks_fixed = edge_map_batch(images, threshold=threshold)
        for i, image in enumerate(images):
            context = f"image {i} of {images.shape}"
            assert_arrays_bitwise_equal(
                magnitude[i], gradient_magnitude(image), context
            )
            assert_arrays_bitwise_equal(
                masks_default[i], edge_map(image), context
            )
            assert_arrays_bitwise_equal(
                masks_fixed[i], edge_map(image, threshold=threshold),
                context,
            )
    assert not np.isfinite(magnitude).all()


def test_series_batch_rejects_degenerate_contours():
    with pytest.raises(ValueError):
        centroid_distance_series_batch(
            [np.array([[0, 0], [0, 1]])]
        )


def test_series_batch_empty_input():
    assert centroid_distance_series_batch([]).shape == (0, 128)


def test_trace_batch_matches_scalar_on_single_pixel():
    mask = np.zeros((1, 5, 7), dtype=bool)
    mask[0, 2, 3] = True
    [points] = trace_boundary_batch(mask)
    assert_arrays_bitwise_equal(points, trace_boundary(mask[0]))


def test_trace_batch_matches_scalar_on_every_4x4_mask():
    """All 65,536 4x4 masks in one stack: the four interior pixels see
    every 8-bit neighbour code."""
    bits = np.arange(1 << 16)[:, None] >> np.arange(16) & 1
    masks = bits.astype(bool).reshape(-1, 4, 4)
    boundaries = trace_boundary_batch(masks)
    assert boundaries[0] is None
    for i in range(1, len(masks)):
        assert_arrays_bitwise_equal(
            boundaries[i], trace_boundary(masks[i]), f"mask {i:#06x}"
        )


@pytest.mark.parametrize("rng", differential_cases(8, root_seed=161803))
def test_trace_batch_matches_scalar_on_raw_masks(rng):
    """Stacks not reduced to their largest component: a start pixel
    can be isolated while other foreground lies elsewhere."""
    masks = random_mask_batch(rng)
    for i, points in enumerate(trace_boundary_batch(masks)):
        context = f"mask {i} of {masks.shape}"
        if not masks[i].any():
            assert points is None, context
            continue
        assert_arrays_bitwise_equal(
            points, trace_boundary(masks[i]), context
        )
