"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros_init
from repro.nn.layers.base import Layer


class Dense(Layer):
    """Affine layer ``y = x W + b`` over 2-D inputs ``(n, in_features)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self._register(
            glorot_uniform((in_features, out_features), rng), "weight"
        )
        self.bias = self._register(zeros_init((out_features,), rng), "bias")
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (n, {self.in_features}), got {x.shape}"
            )
        if training:
            self._cache = x
            # One blocked GEMM: throughput, no invariance promise.
            return x @ self.weight.value + self.bias.value
        # Inference: stacked per-sample matmul instead of one
        # (n, d) @ (d, m) GEMM.  Every sample goes through an
        # identically-shaped (1, d) @ (d, m) product, so the result
        # for a given input row is bitwise independent of the batch
        # size.  BLAS dispatches different kernels for different GEMM
        # shapes, which is what makes the naive batched product differ
        # in the last bits from single-sample inference -- and batched
        # inference (the hybrids' ``infer_batch``) promises exact
        # agreement with per-image inference.
        return (x[:, None, :] @ self.weight.value)[:, 0, :] + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"{self.name}: backward called before forward(training=True)"
            )
        x = self._cache
        self.weight.grad += x.T @ grad
        self.bias.grad += grad.sum(axis=0)
        self._cache = None
        return grad @ self.weight.value.T

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        (features,) = input_shape
        if features != self.in_features:
            raise ValueError(f"{self.name}: feature mismatch ({features})")
        return (self.out_features,)

    def operations_per_image(self, input_shape: tuple[int, ...]) -> int:
        """Scalar multiply-accumulates for one input vector."""
        del input_shape
        return self.in_features * self.out_features
