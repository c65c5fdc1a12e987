"""Reference paths that production code no longer runs.

Each hybrid infers through one batched path; single-image ``infer`` is
a batch of one.  The scalar per-image pipeline the parallel hybrid
used to run beside it lives on here, as the oracle the parity suites
compare the batched path against.  So does the boolean-mask form of
transient array injection, which flips every fired element through
one array call.
"""

from __future__ import annotations

import numpy as np

from repro.core.hybrid import HybridResult, _batch_invariant_inference
from repro.faults.bitflip import bit_range_bounds, flip_bit32_array
from repro.faults.models import TransientFault
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


def transient_apply_array_reference(
    fault: TransientFault, values: np.ndarray
) -> np.ndarray:
    """``TransientFault.apply_array`` in its boolean-mask form: one fire
    draw per element, one bit draw per fired element in C order, and
    every fired element flipped by one :func:`flip_bit32_array` call."""
    values = np.asarray(values, dtype=np.float64)
    fired = fault.rng.random(values.shape) < fault.probability
    n_fired = int(fired.sum())
    if n_fired == 0:
        return values
    fault.activations += n_fired
    low, high = bit_range_bounds(fault.bit_range)
    bits = fault.rng.integers(low, high, size=n_fired)
    out = values.copy()
    out[fired] = flip_bit32_array(values[fired], bits)
    return out
