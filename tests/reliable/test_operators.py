"""Qualified values, operators (Algorithms 1 and 2), voting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import FaultyExecutionUnit
from repro.faults.models import PermanentFault, TransientFault
from repro.reliable.execution_unit import (
    Float32ExecutionUnit,
    PerfectExecutionUnit,
)
from repro.reliable.operators import (
    _OPERATOR_KINDS,
    PlainOperator,
    RedundantOperator,
    TMROperator,
    make_operator,
    operator_kinds,
    register_operator,
)
from repro.reliable.qualified import QualifiedValue
from repro.reliable.voting import majority_vote


class TestQualifiedValue:
    def test_truthiness_is_qualifier(self):
        assert QualifiedValue(1.0, True)
        assert not QualifiedValue(1.0, False)

    def test_unwrap(self):
        assert QualifiedValue(2.5, True).unwrap() == 2.5
        with pytest.raises(ValueError):
            QualifiedValue(2.5, False).unwrap()

    def test_combine_ands_qualifiers(self):
        good = QualifiedValue(1.0, True)
        bad = QualifiedValue(2.0, False)
        assert QualifiedValue.combine(good, good, 3.0).ok
        assert not QualifiedValue.combine(good, bad, 3.0).ok

    def test_frozen(self):
        value = QualifiedValue(1.0, True)
        with pytest.raises(Exception):
            value.value = 2.0


class TestExecutionUnits:
    def test_perfect_unit_exact(self):
        unit = PerfectExecutionUnit()
        assert unit.multiply(3.0, 4.0) == 12.0
        assert unit.add(1.5, 2.5) == 4.0

    def test_float32_unit_rounds(self):
        unit = Float32ExecutionUnit()
        # 0.1 is not representable; float32 product differs from
        # float64 product.
        exact = 0.1 * 0.1
        rounded = unit.multiply(0.1, 0.1)
        assert rounded != exact
        assert abs(rounded - exact) < 1e-8


class TestPlainOperator:
    """Algorithm 1: qualifier preset True."""

    def test_returns_product_and_true(self):
        op = PlainOperator()
        result = op.multiply(3.0, 5.0)
        assert result.value == 15.0 and result.ok

    def test_qualifies_corrupted_result(self, rng):
        # The defining weakness: a fault slips through qualified True.
        unit = FaultyExecutionUnit(PermanentFault(bit=30, rng=rng))
        op = PlainOperator(unit)
        result = op.multiply(3.0, 5.0)
        assert result.ok
        assert result.value != 15.0

    def test_executions_per_op(self):
        assert PlainOperator.executions_per_op == 1


class TestRedundantOperator:
    """Algorithm 2: dual execution, compare."""

    def test_agreement_qualifies(self):
        op = RedundantOperator()
        result = op.add(2.0, 3.0)
        assert result.value == 5.0 and result.ok

    def test_transient_disagreement_detected(self, rng):
        unit = FaultyExecutionUnit(TransientFault(0.5, rng))
        op = RedundantOperator(unit)
        outcomes = [op.multiply(2.0, 3.0) for _ in range(200)]
        flagged = [r for r in outcomes if not r.ok]
        assert flagged, "50% transient faults must trip comparisons"

    def test_permanent_fault_is_common_mode_blind_spot(self, rng):
        unit = FaultyExecutionUnit(PermanentFault(bit=28, rng=rng))
        op = RedundantOperator(unit)
        result = op.multiply(2.0, 3.0)
        assert result.ok          # both copies equally wrong -> agree
        assert result.value != 6.0

    def test_executions_per_op(self):
        assert RedundantOperator.executions_per_op == 2


class TestTMROperator:
    def test_clean_execution(self):
        result = TMROperator().multiply(4.0, 2.5)
        assert result.value == 10.0 and result.ok

    def test_single_fault_masked(self, rng):
        # A fault hitting one of three executions is outvoted.
        unit = FaultyExecutionUnit(TransientFault(0.2, rng))
        op = TMROperator(unit)
        masked = 0
        for _ in range(300):
            result = op.multiply(2.0, 3.0)
            if result.ok and result.value == 6.0:
                masked += 1
        assert masked > 250

    def test_all_disagree_unqualified(self):
        class Countdown(PerfectExecutionUnit):
            def __init__(self):
                self.n = 0

            def multiply(self, a, b):
                self.n += 1
                return a * b + self.n  # three distinct wrong values

        result = TMROperator(Countdown()).multiply(1.0, 1.0)
        assert not result.ok


class _SignedZeroUnit(PerfectExecutionUnit):
    """First call returns +0.0, second returns -0.0: a sign-bit upset
    on a zero result, invisible to float ``==``."""

    def __init__(self):
        self.calls = 0

    def multiply(self, a, b):
        self.calls += 1
        return 0.0 if self.calls % 2 == 1 else -0.0


class _NaNUnit(PerfectExecutionUnit):
    """Deterministically produces a true NaN (inf - inf) on add."""

    def add(self, a, b):
        return float("inf") - float("inf")


class TestWordComparison:
    """Qualifiers compare 64-bit storage words, as hardware does.

    Regression suite for the float ``==`` bugs: identical NaNs used
    to never agree (infinite rollback until bucket overflow) and
    +0.0/-0.0 used to agree silently.
    """

    def test_identical_nan_results_qualify(self):
        result = RedundantOperator(_NaNUnit()).add(
            float("inf"), float("-inf")
        )
        assert np.isnan(result.value)
        assert result.ok  # same NaN word on both executions -> agree

    def test_signed_zero_disagreement_detected(self):
        result = RedundantOperator(_SignedZeroUnit()).multiply(0.0, 1.0)
        assert not result.ok  # +0.0 vs -0.0: different sign words

    def test_tmr_masks_signed_zero_minority(self):
        # Executions produce +0.0, -0.0, +0.0: the word voter must
        # pick +0.0 with agreement 2, not merge the zeros into 3.
        class ThirdPositive(_SignedZeroUnit):
            def multiply(self, a, b):
                self.calls += 1
                return -0.0 if self.calls == 2 else 0.0

        result = TMROperator(ThirdPositive()).multiply(0.0, 1.0)
        assert result.ok
        assert not np.signbit(result.value)

    def test_nan_never_poisons_rollback_loop(self):
        """End-to-end form of the NaN bug: a reliable convolution whose
        accumulate yields NaN must terminate with the NaN qualified,
        not spin into bucket overflow."""
        from repro.reliable.convolution import reliable_convolution

        result = reliable_convolution(
            [float("inf")], [1.0], float("-inf"),
            RedundantOperator(),
        )
        assert np.isnan(result.value)
        assert result.ok


class TestVoting:
    def test_majority(self):
        assert majority_vote([1.0, 1.0, 2.0]) == (1.0, 2)

    def test_unanimous(self):
        assert majority_vote([3.0, 3.0, 3.0]) == (3.0, 3)

    def test_tie_prefers_earliest(self):
        value, agreement = majority_vote([2.0, 1.0, 1.0, 2.0])
        assert value == 2.0 and agreement == 2

    def test_all_distinct(self):
        value, agreement = majority_vote([1.0, 2.0, 3.0])
        assert value == 1.0 and agreement == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])

    def test_nan_votes_count_by_word(self):
        # Counter over raw floats would split identical NaNs (object
        # identity) and could elect a minority finite value.
        nan = float("nan")
        value, agreement = majority_vote([nan, nan, 1.0])
        assert np.isnan(value) and agreement == 2

    def test_signed_zeros_vote_apart(self):
        value, agreement = majority_vote([0.0, -0.0, -0.0])
        assert agreement == 2
        assert np.signbit(value)

    def test_signed_zero_tie_prefers_earliest(self):
        value, agreement = majority_vote([0.0, -0.0])
        assert agreement == 1
        assert not np.signbit(value)


class QuadOperator(RedundantOperator):
    executions_per_op = 4


@pytest.fixture
def scratch_kind():
    """A test-only operator kind, removed from the table afterwards."""
    yield "qmr-test"
    _OPERATOR_KINDS.pop("qmr-test", None)


class TestFactory:
    @pytest.mark.parametrize("kind, cls", [
        ("plain", PlainOperator),
        ("dmr", RedundantOperator),
        ("redundant", RedundantOperator),
        ("tmr", TMROperator),
    ])
    def test_kinds(self, kind, cls):
        assert isinstance(make_operator(kind), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="'dmr', 'plain'"):
            make_operator("quintuple")

    @pytest.mark.parametrize("kind, cls, error", [
        ("", RedundantOperator, ValueError),
        ("qmr-test", int, TypeError),
    ])
    def test_register_rejects_a_bad_kind_or_class(self, kind, cls, error):
        with pytest.raises(error):
            register_operator(kind, cls)
        assert operator_kinds() == ["dmr", "plain", "redundant", "tmr"]

    def test_overwrite_replaces_a_kind(self, scratch_kind):
        register_operator(scratch_kind, RedundantOperator)
        register_operator(scratch_kind, QuadOperator, overwrite=True)
        assert type(make_operator(scratch_kind)) is QuadOperator

    def test_registered_kind_reaches_every_kind_string_surface(
        self, scratch_kind
    ):
        from repro.core.partition import HybridPartition
        from repro.nn.layers.conv import Conv2D
        from repro.reliable.executor import ReliableConv2D

        register_operator(scratch_kind, QuadOperator)
        assert scratch_kind in operator_kinds()
        assert isinstance(make_operator(scratch_kind), QuadOperator)
        layer = Conv2D(1, 2, 3, rng=np.random.default_rng(0))
        conv = ReliableConv2D(layer, scratch_kind)
        assert isinstance(conv.operator, QuadOperator)
        _, report = conv.forward(np.ones((1, 1, 4, 4), np.float32))
        assert report.operator_kind == scratch_kind
        # An instance of the registered class reports the kind too.
        _, report = ReliableConv2D(layer, QuadOperator()).forward(
            np.ones((1, 1, 4, 4), np.float32)
        )
        assert report.operator_kind == scratch_kind
        partition = HybridPartition(redundancy=scratch_kind)
        assert partition.redundancy_multiplier() == 4

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_operator("dmr", RedundantOperator)
        assert type(make_operator("dmr")) is RedundantOperator
