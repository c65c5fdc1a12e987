"""Reference paths that production code no longer runs.

Each hybrid infers through one batched path; single-image ``infer`` is
a batch of one.  The scalar per-image pipeline the parallel hybrid
used to run beside it lives on here, as the oracle the parity suites
compare the batched path against.  So does transient array injection
walked element by element, the oracle for its gap sampling.
"""

from __future__ import annotations

import numpy as np

from repro.core.hybrid import HybridResult
from repro.faults.bitflip import bit_range_bounds, flip_bit32
from repro.faults.models import GAP_RESERVE, TransientFault
from repro.nn.layers.activations import softmax


def parallel_infer_reference(
    hybrid, image: np.ndarray, qualifier_view: np.ndarray | None = None
) -> HybridResult:
    """Figure-1 inference of one image the scalar way: the CNN on a
    batch of one, then the qualifier's scalar ``check`` on the view
    (``image`` itself by default), combined by the result block."""
    image = np.asarray(image, dtype=np.float32)
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
    """``TransientFault.apply_array`` one element at a time, in C order:
    an element fires when the carried gap has run down to zero, and
    each fire takes the next gap from the fault's reserve of
    ``rng.geometric`` draws (less one), refilling the reserve with
    ``GAP_RESERVE`` draws when it is empty; the first call takes the
    first gap.  The fired elements' bits follow as one ``rng.integers``
    block, and each flips through the scalar :func:`flip_bit32`."""

    def next_gap() -> int:
        if not fault.gap_reserve.size:
            fault.gap_reserve = fault.rng.geometric(
                fault.probability, size=GAP_RESERVE
            )
        gap = int(fault.gap_reserve[0]) - 1
        fault.gap_reserve = fault.gap_reserve[1:]
        return gap

    values = np.asarray(values, dtype=np.float64)
    if fault.array_gap is None:
        fault.array_gap = next_gap()
    fired = []
    for index in range(values.size):
        if fault.array_gap == 0:
            fired.append(index)
            fault.array_gap = next_gap()
        else:
            fault.array_gap -= 1
    if not fired:
        return values
    fault.activations += len(fired)
    low, high = bit_range_bounds(fault.bit_range)
    bits = fault.rng.integers(low, high, size=len(fired)).tolist()
    out = values.copy()
    flat = out.reshape(-1)
    for index, bit in zip(fired, bits):
        flat[index] = flip_bit32(float(flat[index]), bit)
    return out
