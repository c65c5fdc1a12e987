"""The :class:`HybridPipeline` facade and config-driven factory.

This module is the canonical entry point for hybrid inference:

>>> from repro.api import PipelineConfig, build_pipeline
>>> pipeline = build_pipeline(PipelineConfig(architecture="integrated"),
...                           model)
>>> batch = pipeline.infer_batch(images)
>>> batch.decision_counts
{'confirmed': 30, 'rejected_by_qualifier': 2, ...}

Construction is driven entirely by :class:`~repro.api.config.
PipelineConfig`: :func:`build_pipeline` constructs the architecture it
names and the shape qualifier directly.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

import numpy as np

from repro.api.config import (
    Architecture,
    PipelineConfig,
    QualifierConfig,
)
from repro.api.results import BatchResult
from repro.core.hybrid import (
    HybridResult,
    IntegratedHybridCNN,
    ParallelHybridCNN,
)
from repro.core.partition import HybridPartition
from repro.core.qualifier import ShapeQualifier
from repro.nn.layers.conv import Conv2D
from repro.nn.network import Sequential
from repro.serving import PipelineServer, ServingConfig
from repro.vision.filters import sobel_axis_stack

# ---------------------------------------------------------------------------
# Component factories
# ---------------------------------------------------------------------------


def build_qualifier(config: QualifierConfig) -> ShapeQualifier:
    """Instantiate the shape qualifier a config describes."""
    return ShapeQualifier(
        shape=config.shape,
        word_length=config.word_length,
        alphabet_size=config.alphabet_size,
        threshold=config.threshold,
        edge_threshold=config.edge_threshold,
        n_samples=config.n_samples,
    )


def _pin_sobel_filters(model: Sequential, config: PipelineConfig) -> None:
    """Pin Sobel-x/-y into the first two reliable filters."""
    # Pinning mutates the trained conv1 in place, so it is only
    # meaningful for the integrated architecture, whose in-network
    # dependable partition consumes the pinned filters.  "parallel"
    # qualifies the raw image and never reads the partition --
    # pinning there would silently degrade the classifier for nothing.
    if config.architecture == Architecture.PARALLEL.value:
        raise ValueError(
            "pin_sobel is meaningless for the 'parallel' architecture: "
            "its qualifier runs on the raw image, so pinning would only "
            "overwrite trained filters"
        )
    partition = config.partition or HybridPartition()
    layer_name = partition.bifurcation_layer
    layer = model.layer(layer_name)
    if not isinstance(layer, Conv2D):
        raise TypeError(
            f"pin_sobel requires a Conv2D at {layer_name!r}, "
            f"got {type(layer).__name__}"
        )
    filters = partition.reliable_filters[layer_name]
    if len(filters) < 2:
        # A single directional filter leaves gaps in contours parallel
        # to its direction (see ShapeQualifier.check_feature_map);
        # silently pinning only Sobel-x would degrade the qualifier
        # while the config reads as the paper's x/y pair.
        raise ValueError(
            "pin_sobel needs at least two reliable filters on "
            f"{layer_name!r} (one per Sobel axis); the partition "
            f"lists {filters}"
        )
    for index, axis in zip(filters[:2], ("x", "y")):
        layer.set_filter(
            index,
            sobel_axis_stack(axis, layer.kernel_size, layer.in_channels),
        )


def build_pipeline(
    config: PipelineConfig, model: Sequential
) -> HybridPipeline:
    """Wire a :class:`HybridPipeline` around a trained model.

    The config supplies everything but the weights: the architecture
    and its qualifier, and the reliable partition of the integrated
    architecture; ``pin_sobel=True`` applies the paper's Sobel
    pre-initialisation to the dependable filters before the hybrid is
    assembled.
    """
    if not isinstance(config, PipelineConfig):
        raise TypeError(
            f"expected a PipelineConfig, got {type(config).__name__}"
        )
    if config.pin_sobel:
        _pin_sobel_filters(model, config)
    qualifier = build_qualifier(config.qualifier)
    if config.architecture == Architecture.PARALLEL.value:
        hybrid = ParallelHybridCNN(model, qualifier, config.safety_class)
    else:
        hybrid = IntegratedHybridCNN(
            model, qualifier, config.safety_class, config.partition
        )
    return HybridPipeline(hybrid, config)


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


class HybridPipeline:
    """Batch-first facade over a constructed hybrid.

    Wraps whichever architecture the config selected behind three
    uniform entry points -- :meth:`infer`, :meth:`infer_batch` and
    :meth:`infer_stream` -- and decorates batched runs with the
    aggregates of :class:`~repro.api.results.BatchResult`.

    Attributes
    ----------
    hybrid:
        The underlying architecture object (e.g.
        :class:`~repro.core.hybrid.ParallelHybridCNN`); exposed for
        callers that need architecture-specific hooks such as fault
        injection into the reliable executor.
    config:
        The :class:`~repro.api.config.PipelineConfig` it was built
        from.
    """

    def __init__(self, hybrid, config: PipelineConfig) -> None:
        self.hybrid = hybrid
        self.config = config

    # -- delegated component access --------------------------------------
    @property
    def model(self) -> Sequential:
        return self.hybrid.model

    @property
    def qualifier(self):
        return self.hybrid.qualifier

    @property
    def safety_class(self) -> int:
        return self.config.safety_class

    # -- inference -------------------------------------------------------
    def infer(
        self,
        image: np.ndarray,
        qualifier_view: np.ndarray | None = None,
    ) -> HybridResult:
        """Classify one ``(3, h, w)`` image."""
        if qualifier_view is not None:
            self._require_view_support()
            return self.hybrid.infer(image, qualifier_view=qualifier_view)
        return self.hybrid.infer(image)

    def infer_batch(
        self,
        images: np.ndarray,
        qualifier_views: np.ndarray | None = None,
    ) -> BatchResult:
        """Classify ``(n, 3, h, w)`` images in one vectorised pass.

        Both halves of the work are batched: the CNN runs as a single
        :meth:`~repro.nn.network.Sequential.forward` and the
        dependable path through the batched qualifier engine
        (:meth:`~repro.core.qualifier.ShapeQualifier.check_batch`).
        Probabilities, verdicts and decisions are bitwise identical to
        n :meth:`infer` calls (see
        ``benchmarks/test_batch_inference.py`` and
        ``tests/core/test_qualifier_batch.py``).  The call reads no
        clock: callers that want wall time measure it themselves.
        """
        if qualifier_views is not None:
            self._require_view_support()
            results = self.hybrid.infer_batch(
                images, qualifier_views=qualifier_views
            )
        else:
            results = self.hybrid.infer_batch(images)
        return BatchResult(results)

    def infer_stream(
        self,
        images: Iterable[np.ndarray],
        batch_size: int = 32,
        max_wait_ms: float = 0.0,
    ) -> Iterator[HybridResult]:
        """Lazily classify an image stream through the micro-batcher.

        Yields one :class:`~repro.core.hybrid.HybridResult` per image
        while keeping at most ``2 * batch_size`` requests in flight --
        the serving shape for an unbounded camera feed.  The stream is
        served by a private :class:`~repro.serving.server.
        PipelineServer` (``max_batch=batch_size``), so streaming uses
        the same fully batched engines -- and carries the same bitwise
        parity with per-image :meth:`infer` calls -- as
        :meth:`infer_batch` and concurrent serving.

        **Ordering guarantee**: results are yielded in submission
        order, unconditionally.  Each submission's pending handle is
        enqueued FIFO and the stream blocks on the *oldest* handle, so
        even if micro-batches were to complete out of order (several
        in flight, uneven flush sizes, a later batch finishing first),
        a later image's result is never yielded before an earlier
        image's.  ``tests/serving/test_stream.py`` pins this.

        ``max_wait_ms`` bounds how long the batcher waits to fill a
        flush; the default of 0 never waits on the producer (an
        exhausted iterator still drains promptly), trading realized
        batch size for latency only when the producer is slower than
        inference.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        config = ServingConfig(
            max_batch=batch_size,
            max_wait_ms=max_wait_ms,
            queue_capacity=2 * batch_size,
            overflow="block",
        )
        pending: deque = deque()
        with PipelineServer(self, config) as server:
            for image in images:
                pending.append(
                    server.submit(np.asarray(image, dtype=np.float32))
                )
                # Bound in-flight work: the queue holds at most
                # 2 * batch_size and we hold handles for the rest.
                while len(pending) > 2 * batch_size:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()

    def serve(
        self,
        config: ServingConfig | None = None,
        on_degraded=None,
    ):
        """Construct a :class:`~repro.serving.server.PipelineServer`
        around this pipeline (not yet started -- use ``with
        pipeline.serve(...) as server:`` or call ``start()``).

        The server owns the pipeline while running: all inference goes
        through its single batcher thread, which keeps the per-request
        results bitwise identical to serial :meth:`infer` calls.  See
        ``docs/serving.md``.
        """
        return PipelineServer(self, config, on_degraded=on_degraded)

    def _require_view_support(self) -> None:
        # Only the parallel hybrid qualifies a separate view of the
        # scene; the integrated one qualifies its bifurcated feature map.
        if self.config.architecture != Architecture.PARALLEL.value:
            raise ValueError(
                f"architecture {self.config.architecture!r} qualifies "
                "the bifurcated feature map; it does not accept a "
                "separate qualifier view"
            )

    def __repr__(self) -> str:
        return (
            f"HybridPipeline({self.config.name!r}, "
            f"architecture={self.config.architecture!r}, "
            f"safety_class={self.safety_class})"
        )
