"""Execution units: where arithmetic physically happens.

The paper targets FPGA arithmetic blocks; here an *execution unit* is
the software model of one processing element.  Redundant operators
call the unit several times and compare -- the unit is the fault
boundary, so fault injection (:mod:`repro.faults`) wraps or replaces
the unit, never the operators, mirroring how single-event upsets hit
the PE rather than the checking logic.
"""

from __future__ import annotations

import numpy as np


class ExecutionUnit:
    """Interface of a scalar arithmetic unit."""

    def multiply(self, a: float, b: float) -> float:
        raise NotImplementedError

    def add(self, a: float, b: float) -> float:
        raise NotImplementedError


class PerfectExecutionUnit(ExecutionUnit):
    """A fault-free unit: plain (double-precision) IEEE-754 arithmetic."""

    def multiply(self, a: float, b: float) -> float:
        return a * b

    def add(self, a: float, b: float) -> float:
        return a + b


class Float32ExecutionUnit(ExecutionUnit):
    """A fault-free unit with bit-exact 32-bit arithmetic.

    Models the single-precision datapath of the paper's FPGA target:
    operands and results are rounded to IEEE-754 binary32, so the
    values redundant executions compare are exactly the words a
    hardware comparator would see.  Slower than
    :class:`PerfectExecutionUnit` (NumPy scalar round-trips); used
    where hardware fidelity matters, e.g. the Table 1 measurement.
    """

    def multiply(self, a: float, b: float) -> float:
        return float(np.float32(a) * np.float32(b))

    def add(self, a: float, b: float) -> float:
        return float(np.float32(a) + np.float32(b))


# ---------------------------------------------------------------------------
# Array execution units (the vectorized engine's arithmetic substrate)
# ---------------------------------------------------------------------------


class ArrayExecutionUnit:
    """Elementwise array counterpart of an :class:`ExecutionUnit`.

    The speculate-then-verify engine
    (:mod:`repro.reliable.vectorized`) runs a whole layer as NumPy
    array operations; an array unit supplies that arithmetic with the
    *same per-element results, bit for bit,* as its scalar twin would
    produce one operation at a time.  Inputs and outputs are float64
    arrays (broadcasting allowed) whose elements are exactly the
    values the scalar unit would pass around as Python floats.

    Whether repeated executions of the same operation return
    identical words -- the property that makes speculation *exact* --
    is not something a unit declares: the engine decides it by exact
    type (:func:`repro.reliable.vectorized.is_deterministic`), so a
    subclass can never switch redundancy off by inheritance.

    ``out`` is an optional float64 scratch buffer the caller permits
    the unit to write the result into (it may alias ``a``).  A unit is
    free to ignore it -- callers must always consume the *returned*
    array, never assume ``out`` was filled.  Elementwise IEEE-754
    arithmetic is value-identical regardless of output placement, so
    honouring ``out`` never changes a single stored word; it only
    spares the allocation that otherwise dominates large-batch passes.
    """

    def multiply(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        raise NotImplementedError

    def add(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        raise NotImplementedError


class Float64ArrayUnit(ArrayExecutionUnit):
    """Array twin of :class:`PerfectExecutionUnit`: IEEE-754 binary64
    arithmetic, elementwise."""

    def multiply(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.multiply(a, b, out=out)

    def add(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.add(a, b, out=out)


class Float32ArrayUnit(ArrayExecutionUnit):
    """Array twin of :class:`Float32ExecutionUnit`.

    Operands round to binary32, the operation runs in binary32, and
    the result widens back to binary64 -- the same
    round/compute/widen chain as the scalar unit, so every element
    matches ``float(np.float32(a) <op> np.float32(b))`` bit for bit.
    The ``out`` scratch hint is ignored (the intermediate lives in
    binary32, so there is no float64 temporary to save).
    """

    def multiply(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        del out
        return (
            np.asarray(a, dtype=np.float32) * np.asarray(b, dtype=np.float32)
        ).astype(np.float64)

    def add(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        del out
        return (
            np.asarray(a, dtype=np.float32) + np.asarray(b, dtype=np.float32)
        ).astype(np.float64)


def as_array_unit(unit: ExecutionUnit) -> ArrayExecutionUnit | None:
    """The array counterpart of a scalar unit, or None.

    Exact-type mapping for the built-ins (a subclass may override
    scalar behaviour, so it must not inherit the parent's vectorised
    form).  Other units participate by exposing an ``as_array_unit()``
    method returning their own :class:`ArrayExecutionUnit` (or None)
    -- :class:`repro.faults.injector.FaultyExecutionUnit` uses this
    hook to supply array-level fault injection.  ``None`` means the
    unit has no bit-exact vectorised form and callers must keep the
    scalar path.
    """
    if type(unit) is PerfectExecutionUnit:
        return Float64ArrayUnit()
    if type(unit) is Float32ExecutionUnit:
        return Float32ArrayUnit()
    hook = getattr(unit, "as_array_unit", None)
    if hook is not None:
        return hook()
    return None
