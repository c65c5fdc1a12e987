"""Contour tracing, components, centroid-distance series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.shapes2d import disk_mask, polygon_mask, regular_polygon
from repro.vision.contours import (
    label_components,
    largest_contour,
    trace_boundary,
)
from repro.vision.series import (
    centroid,
    centroid_distance_series,
    resample_series,
    shape_signature,
)


class TestComponents:
    def test_empty_mask(self):
        labels, count = label_components(np.zeros((4, 4), dtype=bool))
        assert count == 0
        assert (labels == 0).all()

    def test_two_separate_blobs(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:3, 1:3] = True
        mask[5:7, 5:7] = True
        labels, count = label_components(mask)
        assert count == 2
        assert labels[1, 1] != labels[5, 5]

    def test_diagonal_touch_is_connected(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        mask[1, 1] = True
        _, count = label_components(mask)
        assert count == 1


class TestTraceBoundary:
    def test_single_pixel(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        points = trace_boundary(mask)
        np.testing.assert_array_equal(points, [[1, 1]])

    def test_square_boundary_complete(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:8, 2:8] = True
        points = trace_boundary(mask)
        # Perimeter of a 6x6 block is 20 boundary pixels.
        assert len(points) == 20
        as_set = {tuple(p) for p in points}
        assert (2, 2) in as_set and (7, 7) in as_set
        assert (3, 3) not in as_set  # interior

    def test_disk_boundary_circular(self):
        mask = disk_mask((30, 30), (15.0, 15.0), 10.0)
        points = trace_boundary(mask)
        distances = np.hypot(
            points[:, 0] - 15.0, points[:, 1] - 15.0
        )
        assert abs(distances.mean() - 10.0) < 1.0
        assert distances.std() < 0.7

    def test_boundary_points_are_foreground(self):
        mask = disk_mask((20, 20), (10.0, 10.0), 6.0)
        points = trace_boundary(mask)
        assert mask[points[:, 0], points[:, 1]].all()

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            trace_boundary(np.zeros((3, 3), dtype=bool))

    @pytest.mark.parametrize("shape", [(1, 3, 3), (3,)])
    def test_wrong_rank_raises(self, shape):
        mask = np.zeros(shape, dtype=bool)
        mask.flat[0] = True
        with pytest.raises(ValueError, match=r"expected an \(h, w\) mask"):
            trace_boundary(mask)

    def test_ring_traces_outer_edge(self):
        outer = disk_mask((40, 40), (20.0, 20.0), 15.0)
        inner = disk_mask((40, 40), (20.0, 20.0), 10.0)
        ring = outer & ~inner
        points = trace_boundary(ring)
        distances = np.hypot(points[:, 0] - 20.0, points[:, 1] - 20.0)
        # Moore tracing from the topmost pixel walks the outer edge.
        assert distances.min() > 13.0


class TestLargestContour:
    def test_picks_bigger_component(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[1:4, 1:4] = True      # 9 px
        mask[8:16, 8:16] = True    # 64 px
        contour = largest_contour(mask)
        assert contour.area == 64
        assert (contour.points >= 8).all()

    def test_raises_on_empty(self):
        with pytest.raises(ValueError):
            largest_contour(np.zeros((5, 5), dtype=bool))

    def test_contour_centroid(self):
        mask = disk_mask((21, 21), (10.0, 10.0), 7.0)
        contour = largest_contour(mask)
        cr, cc = contour.centroid()
        assert abs(cr - 10.0) < 0.5 and abs(cc - 10.0) < 0.5


class TestCentroid:
    def test_simple_mean(self):
        points = np.array([[0, 0], [0, 2], [2, 0], [2, 2]])
        assert centroid(points) == (1.0, 1.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            centroid(np.zeros((3,)))


class TestDistanceSeries:
    def test_circle_series_flat(self):
        mask = disk_mask((64, 64), (32.0, 32.0), 20.0)
        contour = largest_contour(mask)
        series = centroid_distance_series(contour, n_samples=90)
        assert series.shape == (90,)
        assert series.std() / series.mean() < 0.05

    def test_octagon_series_has_eight_peaks(self):
        verts = regular_polygon((64.0, 64.0), 50.0, 8, np.pi / 8)
        mask = polygon_mask((128, 128), verts)
        contour = largest_contour(mask)
        series = centroid_distance_series(contour, n_samples=128)
        from repro.workflows.shape_series import count_corners

        assert count_corners(series) == 8

    def test_series_range_matches_geometry(self):
        verts = regular_polygon((64.0, 64.0), 50.0, 8, np.pi / 8)
        mask = polygon_mask((128, 128), verts)
        series = centroid_distance_series(
            largest_contour(mask), n_samples=128
        )
        # Octagon: apothem = R*cos(pi/8) ~ 0.924 R.
        assert 44.0 < series.min() < 49.0
        assert 48.0 < series.max() < 52.0

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            centroid_distance_series(np.array([[0, 0], [1, 1]]), 16)

    def test_resample_series(self):
        series = np.linspace(0.0, 1.0, 11)
        out = resample_series(series, 5)
        np.testing.assert_allclose(out, np.linspace(0, 1, 5))
        with pytest.raises(ValueError):
            resample_series(np.array([1.0]), 4)

    def test_shape_signature_end_to_end(self, stop_image):
        series = shape_signature(stop_image, n_samples=128)
        assert series.shape == (128,)
        # Stop sign radius at scale 0.8 on 128px: about 51 px.
        assert 40.0 < series.mean() < 55.0


class TestArrayLabelling:
    """The array-parallel labeller must reproduce the BFS labelling
    *exactly* -- numbering included -- on any mask; the batched
    qualifier engine's exactness contract rests on it."""

    @pytest.mark.parametrize("density", [0.03, 0.1, 0.3, 0.5, 0.8, 1.0])
    def test_matches_bfs_on_random_masks(self, density):
        from repro.vision.contours import (
            label_components_array,
            label_components_batch,
        )

        rng = np.random.default_rng(int(density * 1000))
        masks = rng.random((12, 19, 23)) < density
        batch_labels, batch_counts = label_components_batch(masks)
        for i, mask in enumerate(masks):
            bfs_labels, bfs_count = label_components(mask)
            array_labels, array_count = label_components_array(mask)
            assert array_count == bfs_count
            np.testing.assert_array_equal(array_labels, bfs_labels)
            assert batch_counts[i] == bfs_count
            np.testing.assert_array_equal(batch_labels[i], bfs_labels)

    def test_empty_and_full(self):
        from repro.vision.contours import label_components_array

        labels, count = label_components_array(np.zeros((5, 7), dtype=bool))
        assert count == 0 and (labels == 0).all()
        labels, count = label_components_array(np.ones((5, 7), dtype=bool))
        assert count == 1 and (labels == 1).all()

    def test_largest_component_batch_matches_largest_contour(self):
        from repro.vision.contours import (
            label_components,
            largest_component,
            largest_component_batch,
        )

        rng = np.random.default_rng(4)
        masks = rng.random((8, 21, 17)) < 0.45
        components, found = largest_component_batch(masks)
        for i, mask in enumerate(masks):
            assert found[i] == mask.any()
            if not found[i]:
                assert not components[i].any()
                continue
            expected, _ = largest_component(label_components(mask)[0])
            np.testing.assert_array_equal(components[i], expected)

    def test_largest_component_tie_breaks_to_first_seed(self):
        from repro.vision.contours import largest_component_batch

        mask = np.zeros((1, 5, 9), dtype=bool)
        mask[0, 1, 1:3] = True  # two pixels, seen first
        mask[0, 3, 6:8] = True  # two pixels, later in row-major order
        components, found = largest_component_batch(mask)
        assert found[0]
        np.testing.assert_array_equal(components[0], mask[0] & (
            np.arange(9)[None, :] < 5
        ))


class TestLabellerWrapBoundaries:
    """Pixels that are neighbours in flat-index order but not in the
    image must not be linked: the batched labeller finds neighbours by
    flat offsets, so a row end next to the next row's start, or one
    image's last pixel next to the next image's first, is exactly where
    a missing frame would merge components."""

    @staticmethod
    def _masks() -> np.ndarray:
        n, h, w = 8, 5, 6
        masks = np.zeros((n, h, w), dtype=bool)
        # (r, w-1) then (r+1, 0): one flat step apart (E), and
        # (r, 0) / (r, w-1) on one row: w-1 steps apart (SW).
        masks[0, 0:3, w - 1] = True
        masks[0, 1:4, 0] = True
        # (r, w-1) and (r+2, 0): w+1 steps apart (SE).
        masks[1, 1, w - 1] = True
        masks[1, 3, 0] = True
        masks[1, 3, 1] = True
        # Image 2 stays background.
        # Last pixel of image 3 next to the first pixel of image 4,
        # and image 3's bottom row one row (S) above image 4's top row.
        masks[3, h - 1, :] = True
        masks[4, 0, :] = True
        masks[4, h - 1, w - 1] = True
        # Images 5 and 6 stay background; image 7 starts with its
        # first pixel set after image 4 ended with its last one.
        masks[7, 0, 0] = True
        masks[7, 2:4, 2:5] = True
        return masks

    def test_label_components_batch_matches_bfs(self):
        from repro.vision.contours import label_components_batch

        masks = self._masks()
        labels, counts = label_components_batch(masks)
        for i, mask in enumerate(masks):
            want_labels, want_count = label_components(mask)
            assert counts[i] == want_count, f"image {i}"
            np.testing.assert_array_equal(
                labels[i], want_labels, err_msg=f"image {i}"
            )

    def test_largest_component_batch_matches_bfs(self):
        from repro.vision.contours import (
            largest_component,
            largest_component_batch,
        )

        masks = self._masks()
        components, found = largest_component_batch(masks)
        for i, mask in enumerate(masks):
            assert found[i] == mask.any(), f"image {i}"
            if not mask.any():
                assert not components[i].any(), f"image {i}"
                continue
            want, _ = largest_component(label_components(mask)[0])
            np.testing.assert_array_equal(
                components[i], want, err_msg=f"image {i}"
            )


class TestBatchedFrontendParity:
    """Batched edge/dilate twins equal their scalar forms exactly."""

    def test_edge_map_batch_bitwise(self, stop_image, circle_image):
        from repro.vision.edges import edge_map, edge_map_batch

        stack = np.stack([
            np.asarray(stop_image, dtype=np.float32),
            np.asarray(circle_image, dtype=np.float32),
        ])
        for threshold in (None, 0.75):
            batch = edge_map_batch(stack, threshold=threshold)
            for i in range(len(stack)):
                np.testing.assert_array_equal(
                    batch[i], edge_map(stack[i], threshold=threshold)
                )

    def test_edge_map_batch_zero_images(self):
        from repro.vision.edges import edge_map_batch

        masks = edge_map_batch(np.zeros((3, 3, 12, 12), dtype=np.float32))
        assert not masks.any()

    def test_binary_dilate_batch(self):
        from repro.vision.morphology import binary_dilate
        from repro.vision.morphology import binary_dilate_batch

        rng = np.random.default_rng(11)
        masks = rng.random((6, 14, 15)) < 0.2
        for iterations in (0, 1, 2):
            batch = binary_dilate_batch(masks, iterations)
            for i in range(len(masks)):
                np.testing.assert_array_equal(
                    batch[i], binary_dilate(masks[i], iterations)
                )

    def test_correlate2d_batch_bitwise(self):
        from repro.vision.filters import (
            SOBEL_X,
            correlate2d,
            correlate2d_batch,
        )

        rng = np.random.default_rng(5)
        # Multiple sizes: exactness must not depend on geometry.
        for h, w in ((9, 11), (40, 40), (96, 96)):
            images = rng.standard_normal((5, h, w)).astype(np.float32)
            batch = correlate2d_batch(images, SOBEL_X)
            for i in range(len(images)):
                np.testing.assert_array_equal(
                    batch[i], correlate2d(images[i], SOBEL_X)
                )
