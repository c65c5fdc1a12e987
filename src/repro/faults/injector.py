"""Fault injection points: execution units and tensors.

Faults enter at two places, mirroring the paper's threat model
("single event upsets acting on the processing element or data
corruption of the weights and input data"):

* :class:`FaultyExecutionUnit` corrupts *arithmetic results* -- the
  processing-element upset.  Redundant operators calling the unit
  twice see independent draws for transient models, which is what
  makes comparison-based detection work.
* :func:`corrupt_tensor` / :func:`flip_weight_bits` corrupt *stored
  data* -- weights or activations -- before execution.
"""

from __future__ import annotations

import numpy as np

from repro.faults.bitflip import bit_range_bounds
from repro.faults.models import FaultModel
from repro.reliable.execution_unit import (
    ArrayExecutionUnit,
    ExecutionUnit,
    PerfectExecutionUnit,
    as_array_unit,
)


class FaultyExecutionUnit(ExecutionUnit):
    """An execution unit whose results pass through a fault model.

    Parameters
    ----------
    fault:
        The fault model applied to every result.
    base:
        The underlying (correct) unit; defaults to perfect arithmetic.
    targets:
        Which operations are exposed: ``"both"`` (default),
        ``"multiply"`` or ``"add"``.
    """

    def __init__(
        self,
        fault: FaultModel,
        base: ExecutionUnit | None = None,
        targets: str = "both",
    ) -> None:
        if targets not in ("both", "multiply", "add"):
            raise ValueError("targets must be 'both', 'multiply' or 'add'")
        self.fault = fault
        self.base = base or PerfectExecutionUnit()
        self.targets = targets

    def multiply(self, a: float, b: float) -> float:
        result = self.base.multiply(a, b)
        if self.targets in ("both", "multiply"):
            result = self.fault.apply(result)
        return result

    def add(self, a: float, b: float) -> float:
        result = self.base.add(a, b)
        if self.targets in ("both", "add"):
            result = self.fault.apply(result)
        return result

    def as_array_unit(self) -> "ArrayFaultyExecutionUnit | None":
        """Array counterpart for the vectorized engine's speculative
        passes (the :func:`repro.reliable.execution_unit.as_array_unit`
        hook): same base arithmetic vectorised, with the fault model
        applied to whole result arrays via
        :meth:`~repro.faults.models.FaultModel.apply_array`.  None when
        the base unit itself has no bit-exact array form.
        """
        base = as_array_unit(self.base)
        if base is None:
            return None
        return ArrayFaultyExecutionUnit(self.fault, base, self.targets)


class ArrayFaultyExecutionUnit(ArrayExecutionUnit):
    """Array execution unit whose results pass through a fault model.

    The vectorized engine's injection point: each speculative pass
    computes a tap's products/accumulations as one array op, then the
    fault corrupts the result array element-by-element -- the same
    exposure surface as :class:`FaultyExecutionUnit` gives scalar
    execution, with independent draws per pass so comparison-based
    detection keeps working.  Speculation stays bit-exact against the
    scalar path only over a deterministic base with a stuck-at fault,
    which corrupts every pass identically
    (:func:`repro.reliable.vectorized.is_deterministic`).
    """

    def __init__(
        self,
        fault: FaultModel,
        base: ArrayExecutionUnit,
        targets: str = "both",
    ) -> None:
        if targets not in ("both", "multiply", "add"):
            raise ValueError("targets must be 'both', 'multiply' or 'add'")
        self.fault = fault
        self.base = base
        self.targets = targets

    def multiply(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        result = self.base.multiply(a, b, out=out)
        if self.targets in ("both", "multiply"):
            result = self.fault.apply_array(result)
        return result

    def add(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        result = self.base.add(a, b, out=out)
        if self.targets in ("both", "add"):
            result = self.fault.apply_array(result)
        return result


def corrupt_tensor(
    tensor: np.ndarray,
    n_flips: int,
    rng: np.random.Generator,
    bit_range: tuple[int, int] | None = None,
) -> tuple[np.ndarray, list[tuple[tuple[int, ...], int]]]:
    """Flip ``n_flips`` random bits in random elements of a tensor.

    Returns ``(corrupted_copy, flips)`` where each flip is
    ``(element_index, bit)``, in plain ints.  The input tensor is not
    modified.  Each flip XORs one bit of the stored float32 word, so
    the stored word differs from the original in exactly the bits
    reported -- also where the result is a signalling NaN, which a
    store through a float carrier would quiet.
    """
    if n_flips < 0:
        raise ValueError("n_flips must be >= 0")
    low, high = bit_range_bounds(bit_range)
    corrupted = np.array(tensor, dtype=np.float32, copy=True)
    words = corrupted.reshape(-1).view(np.uint32)
    flips: list[tuple[tuple[int, ...], int]] = []
    for _ in range(n_flips):
        pos = int(rng.integers(0, words.size))
        bit = int(rng.integers(low, high))
        words[pos] ^= np.uint32(1 << bit)
        index = np.unravel_index(pos, corrupted.shape)
        flips.append((tuple(int(i) for i in index), bit))
    return corrupted, flips


def flip_weight_bits(
    layer,
    n_flips: int,
    rng: np.random.Generator,
    bit_range: tuple[int, int] | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    """Corrupt a layer's weight tensor in place; returns the flip list.

    Nothing here undoes the corruption: the caller restores the
    weights, from a saved copy in a try/finally, when it must.
    """
    corrupted, flips = corrupt_tensor(
        layer.weight.value, n_flips, rng, bit_range=bit_range
    )
    layer.weight.value = corrupted
    return flips
