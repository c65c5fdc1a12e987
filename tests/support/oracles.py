"""Scalar reference paths that production code no longer runs.

Each hybrid infers through one batched path; single-image ``infer`` is
a batch of one.  The scalar per-image pipeline the parallel hybrid
used to run beside it lives on here, as the oracle the parity suites
compare the batched path against.
"""

from __future__ import annotations

import numpy as np

from repro.core.hybrid import HybridResult, _batch_invariant_inference
from repro.nn.layers.activations import softmax


def parallel_infer_reference(
    hybrid, image: np.ndarray, qualifier_view: np.ndarray | None = None
) -> HybridResult:
    """Figure-1 inference of one image the scalar way: the CNN on a
    batch of one, then the qualifier's scalar ``check`` on the view
    (``image`` itself by default), combined by the result block."""
    image = np.asarray(image, dtype=np.float32)
    with _batch_invariant_inference(hybrid.model):
        logits = hybrid.model.forward(image[None])
    probabilities = softmax(logits)[0]
    view = image if qualifier_view is None else qualifier_view
    verdict = hybrid.qualifier.check(np.asarray(view, dtype=np.float32))
    predicted, decision = hybrid.result_block.combine(
        probabilities, verdict
    )
    return HybridResult(probabilities, predicted, verdict, decision)
