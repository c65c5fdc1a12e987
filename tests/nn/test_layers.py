"""Dense, activations, pooling, LRN, dropout, flatten."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    Dense,
    Dropout,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.nn.layers.activations import softmax
from tests.nn.test_conv import numerical_gradient


class TestDense:
    def test_forward_affine(self, rng):
        dense = Dense(3, 2, rng=rng)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        expected = x @ dense.weight.value + dense.bias.value
        np.testing.assert_allclose(dense.forward(x), expected, rtol=1e-6)

    def test_inference_is_batch_size_invariant(self, rng):
        """A sample's output must not depend on its batch: batched
        inference promises bitwise parity with per-image inference,
        and Dense is the one layer where a naive batched GEMM breaks
        it (BLAS dispatches shape-dependent kernels).  Inference
        always takes the per-sample matmul, with no mode to set, so a
        model shared with baselines or calibration behaves the same
        everywhere; training keeps the blocked GEMM."""
        dense = Dense(128, 16, rng=rng)
        x = rng.standard_normal((32, 128)).astype(np.float32)
        batched = dense.forward(x)
        singles = np.concatenate(
            [dense.forward(x[i : i + 1]) for i in range(len(x))]
        )
        np.testing.assert_array_equal(batched, singles)
        # At n = 1 the per-sample form is the plain affine map bitwise.
        np.testing.assert_array_equal(
            dense.forward(x[:1]), x[:1] @ dense.weight.value + dense.bias.value
        )

    def test_gradients(self, rng):
        dense = Dense(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        target = rng.standard_normal((2, 3)).astype(np.float32)

        def loss():
            out = dense.forward(x.astype(np.float32), training=True)
            return float(((out - target) ** 2).sum())

        out = dense.forward(x.astype(np.float32), training=True)
        dense.zero_grad()
        dx = dense.backward(2 * (out - target))
        np.testing.assert_allclose(
            dx, numerical_gradient(loss, x), atol=2e-2
        )
        nw = numerical_gradient(loss, dense.weight.value)
        dense.zero_grad()
        dense.forward(x.astype(np.float32), training=True)
        dense.backward(2 * (out - target))
        np.testing.assert_allclose(dense.weight.grad, nw, atol=2e-2)

    def test_shape_validation(self, rng):
        dense = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError):
            dense.forward(np.zeros((2, 5), dtype=np.float32))
        with pytest.raises(ValueError):
            dense.output_shape((5,))

    def test_ops_count(self):
        assert Dense(128, 64).operations_per_image((128,)) == 128 * 64


class TestReLU:
    def test_forward_clamps_negatives(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.5]], dtype=np.float32)
        np.testing.assert_array_equal(
            relu.forward(x), [[0.0, 0.0, 2.5]]
        )

    def test_backward_masks(self):
        relu = ReLU()
        x = np.array([[-1.0, 3.0]], dtype=np.float32)
        relu.forward(x, training=True)
        grad = relu.backward(np.array([[5.0, 5.0]], dtype=np.float32))
        np.testing.assert_array_equal(grad, [[0.0, 5.0]])

    def test_backward_without_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 1), dtype=np.float32))


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = softmax(rng.standard_normal((5, 7)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), rtol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            softmax(x), softmax(x + 100.0), rtol=1e-5
        )

    def test_handles_large_logits(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] > 0.999

    def test_layer_backward_matches_numerical(self, rng):
        layer = Softmax()
        x = rng.standard_normal((2, 4))
        target = rng.standard_normal((2, 4)).astype(np.float32)

        def loss():
            out = layer.forward(x.astype(np.float32), training=True)
            return float(((out - target) ** 2).sum())

        out = layer.forward(x.astype(np.float32), training=True)
        dx = layer.backward(2 * (out - target))
        np.testing.assert_allclose(
            dx, numerical_gradient(loss, x), atol=1e-2
        )


class TestMaxPool:
    def test_forward_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_array_equal(
            out[0, 0], [[5.0, 7.0], [13.0, 15.0]]
        )

    def test_overlapping_alexnet_geometry(self, rng):
        pool = MaxPool2D(3, stride=2)
        x = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
        out = pool.forward(x)
        assert out.shape == (1, 2, 3, 3)
        assert out[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.array(
            [[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32
        )
        pool.forward(x, training=True)
        dx = pool.backward(np.array([[[[7.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(
            dx[0, 0], [[0.0, 0.0], [0.0, 7.0]]
        )

    def test_backward_overlap_accumulates(self, rng):
        pool = MaxPool2D(3, stride=2)
        x = rng.standard_normal((1, 1, 7, 7))
        target = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)

        def loss():
            out = pool.forward(x.astype(np.float32), training=True)
            return float(((out - target) ** 2).sum())

        out = pool.forward(x.astype(np.float32), training=True)
        dx = pool.backward(2 * (out - target))
        np.testing.assert_allclose(
            dx, numerical_gradient(loss, x), atol=2e-2
        )

    def test_rejects_bad_pool_size(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)


class TestLRN:
    def test_alexnet_defaults(self):
        lrn = LocalResponseNorm()
        assert (lrn.size, lrn.k, lrn.alpha, lrn.beta) == (
            5, 2.0, 1e-4, 0.75,
        )

    def test_forward_matches_direct_formula(self, rng):
        lrn = LocalResponseNorm(size=3, k=1.0, alpha=0.3, beta=0.5)
        x = rng.standard_normal((1, 4, 2, 2)).astype(np.float32)
        out = lrn.forward(x)
        # Channel 1's window is channels 0..2.
        window = (x[0, 0:3] ** 2).sum(axis=0)
        denom = (1.0 + 0.1 * window) ** 0.5
        np.testing.assert_allclose(out[0, 1], x[0, 1] / denom, rtol=1e-5)

    def test_backward_matches_numerical(self, rng):
        lrn = LocalResponseNorm(size=3)
        x = rng.standard_normal((1, 5, 2, 2))
        target = rng.standard_normal(x.shape).astype(np.float32)

        def loss():
            out = lrn.forward(x.astype(np.float32), training=True)
            return float(((out - target) ** 2).sum())

        out = lrn.forward(x.astype(np.float32), training=True)
        dx = lrn.backward(2 * (out - target))
        np.testing.assert_allclose(
            dx, numerical_gradient(loss, x), atol=2e-2
        )

    def test_rejects_even_size(self):
        with pytest.raises(ValueError):
            LocalResponseNorm(size=4)


class TestDropout:
    def test_identity_at_inference(self, rng):
        drop = Dropout(0.5, rng=rng)
        x = rng.standard_normal((4, 10)).astype(np.float32)
        np.testing.assert_array_equal(drop.forward(x), x)

    def test_training_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((100, 100), dtype=np.float32)
        out = drop.forward(x, training=True)
        kept = out != 0.0
        assert 0.4 < kept.mean() < 0.6
        np.testing.assert_allclose(out[kept], 2.0)

    def test_backward_uses_same_mask(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((10, 10), dtype=np.float32)
        out = drop.forward(x, training=True)
        grad = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestFlatten:
    def test_roundtrip(self, rng):
        flat = Flatten()
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        out = flat.forward(x, training=True)
        assert out.shape == (2, 60)
        back = flat.backward(out)
        np.testing.assert_array_equal(back, x)

    def test_output_shape(self):
        assert Flatten().output_shape((3, 4, 5)) == (60,)
