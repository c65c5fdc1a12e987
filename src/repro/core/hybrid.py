"""Hybrid CNN architectures (paper Figures 1 and 2).

Two shapes of the same idea:

* :class:`ParallelHybridCNN` (Figure 1): the CNN classifies as usual;
  an *independent* reliably-executed shape-recognition block runs on
  the same input, and the reliable-result block qualifies the CNN's
  safety-relevant class with the block's verdict.
* :class:`IntegratedHybridCNN` (Figure 2): the early convolution is
  shared.  Its reliable partition (the DCNN -- e.g. one Sobel-pinned
  filter of ``conv1``) is executed with redundant arithmetic; the
  data path *bifurcates* there: the reliable feature map feeds the
  qualifier while the full feature stack continues through the
  non-reliable remainder of the CNN.

Both produce a :class:`HybridResult` via the same
:class:`ReliableResultBlock` combination logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.partition import HybridPartition
from repro.core.qualifier import QualifierVerdict, ShapeQualifier
from repro.nn.layers.activations import softmax
from repro.nn.network import Sequential
from repro.reliable.executor import ExecutionReport, ReliableConv2D


class Decision(enum.Enum):
    """Final verdict of the reliable-result block."""

    #: CNN says safety class, qualifier confirms: dependable positive.
    CONFIRMED = "confirmed"
    #: CNN says safety class, qualifier denies: suppressed (prevents a
    #: false positive on the safety class).
    REJECTED_BY_QUALIFIER = "rejected_by_qualifier"
    #: CNN predicts a non-safety class; used without qualification
    #: ("classifications that are not considered safety critical ...
    #: can be used without any qualification").
    NOT_SAFETY_CRITICAL = "not_safety_critical"
    #: Qualifier found the shape but the CNN disagreed: flagged for a
    #: supervisory layer (possible CNN false negative).
    SHAPE_WITHOUT_CLASS = "shape_without_class"
    #: The qualifier's own redundant execution failed persistently --
    #: the dependable path is unavailable and the safety class cannot
    #: be confirmed.
    QUALIFIER_UNAVAILABLE = "qualifier_unavailable"


#: Decisions in which the qualifier flagged the result for attention
#: beyond normal use: a suppressed safety-class positive, a shape the
#: CNN missed, or an unavailable dependable path.  The serving layer
#: routes these to its graceful-degradation hook
#: (:class:`repro.serving.server.PipelineServer`); a supervisory layer
#: decides what "degraded" means operationally (slow down, hand off,
#: alert).
FLAGGED_DECISIONS = frozenset({
    Decision.REJECTED_BY_QUALIFIER,
    Decision.SHAPE_WITHOUT_CLASS,
    Decision.QUALIFIER_UNAVAILABLE,
})


@dataclass
class HybridResult:
    """Everything the hybrid network produces for one input.

    Attributes
    ----------
    probabilities:
        Softmax class confidences from the (non-reliable) CNN.
    predicted_class:
        Argmax class index.
    verdict:
        The qualifier's :class:`QualifierVerdict`.
    decision:
        The reliable-result combination (see :class:`Decision`).
    reliable_report:
        Diagnostics of the reliable execution (integrated hybrid
        only; None for the parallel architecture).
    """

    probabilities: np.ndarray
    predicted_class: int
    verdict: QualifierVerdict
    decision: Decision
    reliable_report: ExecutionReport | None = None

    @property
    def confirmed(self) -> bool:
        """True only for a dependable positive on the safety class."""
        return self.decision is Decision.CONFIRMED

    @property
    def flagged(self) -> bool:
        """True when the qualifier flagged this result for supervisory
        attention (see :data:`FLAGGED_DECISIONS`)."""
        return self.decision in FLAGGED_DECISIONS


class ReliableResultBlock:
    """Combine CNN output with the qualifier verdict (Figures 1 and 2).

    Parameters
    ----------
    safety_class:
        Index of the class requiring qualification (the "Stop" sign).
    """

    def __init__(self, safety_class: int) -> None:
        self.safety_class = safety_class

    def combine(
        self, probabilities: np.ndarray, verdict: QualifierVerdict
    ) -> tuple[int, Decision]:
        predicted = int(np.argmax(probabilities))
        if not verdict.reliable:
            # The dependable path itself failed; never confirm.
            if predicted == self.safety_class:
                return predicted, Decision.QUALIFIER_UNAVAILABLE
            return predicted, Decision.NOT_SAFETY_CRITICAL
        if predicted == self.safety_class:
            if verdict.matches:
                return predicted, Decision.CONFIRMED
            return predicted, Decision.REJECTED_BY_QUALIFIER
        if verdict.matches:
            return predicted, Decision.SHAPE_WITHOUT_CLASS
        return predicted, Decision.NOT_SAFETY_CRITICAL


class ParallelHybridCNN:
    """Figure 1: independent qualifier in parallel with the CNN.

    Parameters
    ----------
    model:
        Trained classifier ending in logits.
    qualifier:
        The reliable shape qualifier, run on the raw input image.
    safety_class:
        Class index to be qualified.
    """

    def __init__(
        self,
        model: Sequential,
        qualifier: ShapeQualifier,
        safety_class: int,
    ) -> None:
        self.model = model
        self.qualifier = qualifier
        self.result_block = ReliableResultBlock(safety_class)

    def infer(
        self,
        image: np.ndarray,
        qualifier_view: np.ndarray | None = None,
    ) -> HybridResult:
        """Classify one ``(3, h, w)`` image with qualification.

        ``qualifier_view`` optionally gives the qualifier a different
        rendering of the same scene (e.g. the CNN at its 32px training
        resolution, the shape detector at 128px); by default the
        qualifier sees ``image`` itself.  A batch of one through
        :meth:`infer_batch`, the architecture's single inference path.
        """
        views = None if qualifier_view is None else [qualifier_view]
        return self.infer_batch(np.asarray(image)[None], views)[0]

    def infer_batch(
        self,
        images: np.ndarray,
        qualifier_views: np.ndarray | None = None,
    ) -> list[HybridResult]:
        """Classify ``(n, 3, h, w)`` images in one vectorised pass.

        The CNN half runs as a single batched
        :meth:`~repro.nn.network.Sequential.forward` instead of n
        per-image passes, and the qualifier half runs through
        :meth:`ShapeQualifier.check_batch` -- whole-batch edge maps,
        array labelling and one SAX/MINDIST pass under the batched
        engine (:mod:`repro.core.qualifier_batch`).  Probabilities,
        verdicts and decisions are bitwise independent of batch
        composition, so equal to n :meth:`infer` calls: every layer's
        inference arithmetic is per-sample shape-stable, whoever else
        shares the model (:class:`repro.nn.layers.dense.Dense` always
        infers through a per-sample matmul), and the qualifier
        vectorizes only when provably bit-identical to its scalar
        :meth:`ShapeQualifier.check`.
        """
        images = np.asarray(images, dtype=np.float32)
        if qualifier_views is not None and len(qualifier_views) != len(
            images
        ):
            raise ValueError(
                f"{len(images)} images but {len(qualifier_views)} "
                "qualifier views; each image needs exactly one view"
            )
        if len(images) == 0:
            return []
        logits = self.model.forward(images)
        probabilities = softmax(logits)
        if qualifier_views is None:
            verdicts = self.qualifier.check_batch(images)
        else:
            try:
                views = np.asarray(qualifier_views, dtype=np.float32)
            except ValueError:
                # Ragged views (one resolution per scene) cannot stack;
                # qualify each as the batch of one infer() runs.
                views = None
            if views is None:
                verdicts = [
                    self.qualifier.check_batch(
                        np.asarray(view, dtype=np.float32)[None]
                    )[0]
                    for view in qualifier_views
                ]
            else:
                verdicts = self.qualifier.check_batch(views)
        results = []
        for i in range(len(images)):
            predicted, decision = self.result_block.combine(
                probabilities[i], verdicts[i]
            )
            results.append(
                HybridResult(
                    probabilities[i], predicted, verdicts[i], decision
                )
            )
        return results


class IntegratedHybridCNN:
    """Figure 2: shared early layers, bifurcating reliable data path.

    The partition's bifurcation layer is executed in two parts:

    * reliable filters (the DCNN) through
      :class:`~repro.reliable.executor.ReliableConv2D` with qualified
      redundant arithmetic;
    * remaining filters natively.

    The reliable filters' feature maps feed the qualifier
    (:meth:`ShapeQualifier.check_feature_map`); the complete feature
    stack continues through the rest of the CNN.  With the reliable
    filter pinned to a Sobel stack during training (see
    :class:`repro.nn.trainer.FilterPin`) the bifurcated map is an edge
    response the dependable model understands.

    Parameters
    ----------
    model:
        Trained classifier whose first convolution carries the pinned
        dependable filter(s).
    qualifier:
        Shape qualifier consuming the bifurcated feature map.
    partition:
        The reliable/non-reliable split (defaults to the paper's: one
        filter of ``conv1`` under DMR).
    safety_class:
        Class index to be qualified.
    """

    def __init__(
        self,
        model: Sequential,
        qualifier: ShapeQualifier,
        safety_class: int,
        partition: HybridPartition | None = None,
    ) -> None:
        self.model = model
        self.qualifier = qualifier
        self.partition = partition or HybridPartition()
        self.partition.validate_against(model)
        self.result_block = ReliableResultBlock(safety_class)
        self._bif_index = model.index_of(self.partition.bifurcation_layer)
        self._bif_layer = model[self._bif_index]
        self._reliable_conv = ReliableConv2D(
            self._bif_layer,
            operator=self.partition.redundancy,
            on_persistent_failure="mark",
        )

    def infer(self, image: np.ndarray) -> HybridResult:
        """Classify one ``(3, h, w)`` image through the hybrid path."""
        return self._infer_stack(
            np.asarray(image, dtype=np.float32)[None]
        )[0]

    def infer_batch(self, images: np.ndarray) -> list[HybridResult]:
        """Classify ``(n, 3, h, w)`` images in one vectorised pass.

        The shared prefix, the reliable partition
        (:class:`~repro.reliable.executor.ReliableConv2D` is already
        batch-aware), the non-reliable remainder and the feature-map
        qualifier each run once on the whole batch.  Probabilities and
        decisions are bitwise
        identical to n :meth:`infer` calls; the reliable executor
        allocates its leaky bucket per image, so even abort points
        match single-image inference.  Each result's
        ``reliable_report`` is that image's slice of the batched
        :class:`~repro.reliable.executor.ExecutionReport`
        (``report.per_image``), equivalent counter-for-counter to the
        report the same image would get from :meth:`infer`.
        """
        return self._infer_stack(np.asarray(images, dtype=np.float32))

    def _infer_stack(self, x: np.ndarray) -> list[HybridResult]:
        if len(x) == 0:
            return []
        # Shared prefix up to the bifurcation layer (usually empty:
        # conv1 is the first layer).
        x = self.model.forward_until(x, self._bif_index)
        reliable_filters = list(
            self.partition.reliable_filters[self.partition.bifurcation_layer]
        )
        features, report = self._reliable_conv.forward(
            x, filters=reliable_filters
        )
        # Images whose dependable arithmetic aborted persistently:
        # their verdict is unavailable, never computed from NaN maps.
        failed_images = {pos[0] for pos in report.failed_outputs}
        # The full stack continues onward through the CNN...
        logits = self.model.forward_from(features, self._bif_index + 1)
        probabilities = softmax(logits)
        # ... while the reliable maps bifurcate to the qualifier, all
        # surviving images in one batched pass.
        verdicts: list[QualifierVerdict | None] = [
            QualifierVerdict.unavailable() if i in failed_images else None
            for i in range(len(features))
        ]
        alive = [i for i in range(len(features)) if i not in failed_images]
        if alive:
            stacked = features[np.ix_(alive, reliable_filters)]
            for i, verdict in zip(
                alive, self.qualifier.check_feature_map_batch(stacked)
            ):
                verdicts[i] = verdict
        # Per-image report attribution: each result carries its own
        # slice of the batched execution, so batch and serial paths
        # report equivalently.
        results = []
        for i in range(len(features)):
            predicted, decision = self.result_block.combine(
                probabilities[i], verdicts[i]
            )
            results.append(HybridResult(
                probabilities[i], predicted, verdicts[i], decision,
                reliable_report=report.per_image[i],
            ))
        return results
