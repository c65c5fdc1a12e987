"""Qualified arithmetic operators (paper Algorithms 1 and 2, plus TMR).

Each operator exposes ``multiply`` and ``add`` returning a
:class:`~repro.reliable.qualified.QualifiedValue`.  Operators differ
only in how they execute and check -- the overloading mechanism the
paper describes ("the overloading allows us to attach multiple methods
to a basic operation").
"""

from __future__ import annotations

from repro.reliable.bits import same_word
from repro.reliable.execution_unit import ExecutionUnit, PerfectExecutionUnit
from repro.reliable.qualified import QualifiedValue
from repro.reliable.voting import majority_vote


class Operator:
    """Base qualified operator bound to an execution unit."""

    #: Number of unit invocations per qualified operation; used by the
    #: cost model (paper Table 1 context: Algorithm 2 "performs two
    #: multiplications and a comparison").
    executions_per_op: int = 1

    #: True when the operator *masks* single faults (voting) rather
    #: than merely detecting them; selects the guarantee math in
    #: :class:`repro.core.guarantee.ReliabilityGuarantee`.
    masks_faults: bool = False

    def __init__(self, unit: ExecutionUnit | None = None) -> None:
        self.unit = unit or PerfectExecutionUnit()

    def multiply(self, a: float, b: float) -> QualifiedValue:
        raise NotImplementedError

    def add(self, a: float, b: float) -> QualifiedValue:
        raise NotImplementedError


class PlainOperator(Operator):
    """Algorithm 1: single execution, qualifier preset to True.

    "This operation simply returns a product and a predefined
    qualifier, set to True.  We use operations like this to determine
    baseline performance characteristics."  Note the qualifier is an
    *assumption*, not a check: under fault injection a PlainOperator
    happily qualifies a corrupted result -- exactly the unprotected
    baseline the paper compares against.
    """

    executions_per_op = 1

    def multiply(self, a: float, b: float) -> QualifiedValue:
        return QualifiedValue(self.unit.multiply(a, b), True)

    def add(self, a: float, b: float) -> QualifiedValue:
        return QualifiedValue(self.unit.add(a, b), True)


class RedundantOperator(Operator):
    """Algorithm 2: dual execution, qualifier = result agreement (DMR).

    "Here the qualifier is set to True should the two products be the
    same."  Detection only -- recovery is Algorithm 3's rollback.
    When the results disagree the first result is returned (arbitrarily;
    the caller must treat it as invalid because ``ok`` is False).

    Agreement is bit-for-bit on the 64-bit storage words
    (:func:`repro.reliable.bits.same_word`), as a hardware comparator
    would check it.  Float ``==`` would mis-qualify two edge cases: a
    true-NaN result (e.g. ``inf - inf``) never equals its re-execution,
    so the rollback loop spins until bucket overflow -- and with
    ``on_persistent_failure="mark"`` the resulting NaN output poisons
    every downstream reliable op -- while ``+0.0`` vs ``-0.0`` (a
    sign-bit upset on a zero) would be silently accepted.
    """

    executions_per_op = 2

    def multiply(self, a: float, b: float) -> QualifiedValue:
        first = self.unit.multiply(a, b)
        second = self.unit.multiply(a, b)
        return QualifiedValue(first, same_word(first, second))

    def add(self, a: float, b: float) -> QualifiedValue:
        first = self.unit.add(a, b)
        second = self.unit.add(a, b)
        return QualifiedValue(first, same_word(first, second))


class TMROperator(Operator):
    """Triple modular redundancy: three executions, majority vote.

    The paper: the value can be "agreed upon by execution of the
    algorithm three times and voting on the result".  A fault in one
    of three executions is *masked* (value correct, qualifier True);
    only when all three disagree is the qualifier False.
    """

    executions_per_op = 3
    masks_faults = True

    def _vote(self, results: list[float]) -> QualifiedValue:
        value, agreement = majority_vote(results)
        return QualifiedValue(value, agreement >= 2)

    def multiply(self, a: float, b: float) -> QualifiedValue:
        return self._vote([self.unit.multiply(a, b) for _ in range(3)])

    def add(self, a: float, b: float) -> QualifiedValue:
        return self._vote([self.unit.add(a, b) for _ in range(3)])


_OPERATOR_KINDS = {
    "plain": PlainOperator,
    "dmr": RedundantOperator,
    "redundant": RedundantOperator,
    "tmr": TMROperator,
}


def register_operator(
    kind: str, cls: type[Operator], *, overwrite: bool = False
) -> None:
    """Add an operator kind to the factory table.

    Registered kinds become valid everywhere a kind string is
    accepted: :func:`make_operator`,
    :class:`~repro.reliable.executor.ReliableConv2D` and
    :class:`repro.core.partition.HybridPartition.redundancy` (the
    partition derives its redundancy multiplier from the class's
    ``executions_per_op``).  This table is the one place an operator
    kind registers.
    """
    if not kind or not isinstance(kind, str):
        raise ValueError("operator kind must be a non-empty string")
    if kind in _OPERATOR_KINDS and not overwrite:
        raise ValueError(
            f"operator kind {kind!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    if not (isinstance(cls, type) and issubclass(cls, Operator)):
        raise TypeError("operator class must subclass Operator")
    _OPERATOR_KINDS[kind] = cls


def operator_kinds() -> list[str]:
    """All registered operator kind strings."""
    return sorted(_OPERATOR_KINDS)


def operator_multiplier(kind: str) -> int:
    """Unit executions per qualified operation for a registered kind."""
    return _operator_class(kind).executions_per_op


def operator_masks(kind: str) -> bool:
    """Whether a registered kind masks faults by voting (TMR-like)."""
    return _operator_class(kind).masks_faults


def operator_kind_of(operator: Operator) -> str:
    """The registry kind string of an operator instance.

    Reverse lookup over the factory table by *exact* class, so the
    same canonical kind comes back no matter how the operator was
    constructed -- ``ReliableConv2D(conv, RedundantOperator())`` and
    ``ReliableConv2D(conv, "dmr")`` report identically.  Aliases
    resolve to the first-registered kind (``"dmr"``, never
    ``"redundant"``).  Instances of unregistered classes (e.g. ad-hoc
    subclasses in tests) fall back to the class name.
    """
    for kind, cls in _OPERATOR_KINDS.items():
        if type(operator) is cls:
            return kind
    return type(operator).__name__


def _operator_class(kind: str) -> type[Operator]:
    try:
        return _OPERATOR_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown operator kind {kind!r}; "
            f"choose from {sorted(_OPERATOR_KINDS)}"
        ) from None


def make_operator(kind: str, unit: ExecutionUnit | None = None) -> Operator:
    """Operator factory: ``"plain"``, ``"dmr"``/``"redundant"``,
    ``"tmr"``, or any kind added via :func:`register_operator`."""
    return _operator_class(kind)(unit)
