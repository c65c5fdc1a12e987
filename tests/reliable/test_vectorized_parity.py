"""Parity suite: the vectorized engine vs scalar Algorithm 3.

The speculate-then-verify engine's contract
(:mod:`repro.reliable.vectorized`) is *bitwise identity* with the
scalar per-operation path whenever speculation is exact: same output
words, same ``ExecutionReport`` counters, same abort point, same
``failed_outputs``.  This suite sweeps that contract property-style
across operators {plain, dmr, tmr}, fault-free and (deterministically)
fault-injected units, ``filters=`` subsets and batch sizes, then
checks the stochastic-injection and fallback behaviours separately --
including the draw-exact repair, a bit-replay of the scalar repair
under transient faults.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.faults.injector import FaultyExecutionUnit
from repro.faults.models import (
    IntermittentFault,
    PermanentFault,
    TransientFault,
)
from repro.nn import Conv2D
from repro.reliable.convolution import ConvolutionStats
from repro.reliable.errors import PersistentFailureError
from repro.reliable.execution_unit import (
    Float32ExecutionUnit,
    Float64ArrayUnit,
    PerfectExecutionUnit,
    as_array_unit,
)
from repro.reliable.executor import RELIABLE_ENGINES, ReliableConv2D
from repro.reliable.leaky_bucket import LeakyBucket
from repro.reliable.operators import (
    PlainOperator,
    RedundantOperator,
    TMROperator,
)
from repro.reliable.vectorized import (
    can_speculate,
    is_deterministic,
    repair_is_draw_exact,
    speculation_is_exact,
    vectorized_reliable_convolution,
)


@pytest.fixture
def conv(rng):
    return Conv2D(2, 3, 3, stride=1, rng=rng, name="conv")


@pytest.fixture
def batch(rng):
    return rng.standard_normal((2, 2, 6, 6)).astype(np.float32)


OPERATOR_CLASSES = {
    "plain": PlainOperator,
    "dmr": RedundantOperator,
    "tmr": TMROperator,
}

#: Deterministic units: speculation must be provably exact for all of
#: these.  The permanent-fault units include exponent/sign flips that
#: drive values through inf and NaN -- the words the fixed comparators
#: must agree on.
def _units():
    return {
        "perfect": PerfectExecutionUnit(),
        "float32": Float32ExecutionUnit(),
        "stuck-exponent": FaultyExecutionUnit(PermanentFault(bit=30)),
        "stuck-sign": FaultyExecutionUnit(PermanentFault(bit=31)),
        "stuck-mantissa-f32": FaultyExecutionUnit(
            PermanentFault(bit=3), Float32ExecutionUnit()
        ),
    }


def _report_key(report):
    return (
        report.operations,
        report.errors_detected,
        report.rollbacks,
        report.persistent_failures,
        [tuple(int(x) for x in pos) for pos in report.failed_outputs],
        report.operator_kind,
    )


def _assert_bitwise(scalar, vectorized, context):
    out_s, rep_s = scalar
    out_v, rep_v = vectorized
    assert out_s.shape == out_v.shape, context
    assert out_s.tobytes() == out_v.tobytes(), context
    assert _report_key(rep_s) == _report_key(rep_v), context


class TestExactParity:
    @pytest.mark.parametrize("op_name", sorted(OPERATOR_CLASSES))
    @pytest.mark.parametrize("unit_name", sorted(_units()))
    @pytest.mark.parametrize("filters", [None, [1], [0, 2], []])
    def test_bitwise_identical(
        self, conv, batch, op_name, unit_name, filters
    ):
        op_cls = OPERATOR_CLASSES[op_name]
        scalar = ReliableConv2D(
            conv, op_cls(_units()[unit_name]), engine="scalar",
            bucket_ceiling=50,
        ).forward(batch, filters=filters)
        vectorized = ReliableConv2D(
            conv, op_cls(_units()[unit_name]), engine="vectorized",
            bucket_ceiling=50,
        ).forward(batch, filters=filters)
        _assert_bitwise(scalar, vectorized, (op_name, unit_name, filters))

    @pytest.mark.parametrize("op_name", sorted(OPERATOR_CLASSES))
    def test_single_image_matches_batch_slice(self, conv, batch, op_name):
        """Per-image independence: each batched image's words equal its
        own single-image run (the per-image bucket contract)."""
        op_cls = OPERATOR_CLASSES[op_name]
        executor = ReliableConv2D(conv, op_cls(), engine="vectorized")
        full, _ = executor.forward(batch)
        for i in range(len(batch)):
            single, _ = executor.forward(batch[i : i + 1])
            assert single[0].tobytes() == full[i].tobytes()

    def test_exactness_predicate(self):
        assert speculation_is_exact(RedundantOperator())
        assert speculation_is_exact(
            TMROperator(Float32ExecutionUnit())
        )
        assert speculation_is_exact(
            PlainOperator(FaultyExecutionUnit(PermanentFault(bit=7)))
        )
        assert not speculation_is_exact(
            RedundantOperator(
                FaultyExecutionUnit(
                    TransientFault(0.1, np.random.default_rng(0))
                )
            )
        )

    def test_auto_resolution_policy(self, conv):
        assert ReliableConv2D(conv, "dmr")._resolve_engine() == "vectorized"
        faulty = RedundantOperator(
            FaultyExecutionUnit(TransientFault(0.1, np.random.default_rng(0)))
        )
        assert ReliableConv2D(conv, faulty)._resolve_engine() == "scalar"
        assert (
            ReliableConv2D(conv, "tmr", engine="scalar")._resolve_engine()
            == "scalar"
        )


class TestStochasticInjection:
    """Array-level injection on the speculative passes: campaigns still
    exercise detection, rollback and abort through the engine."""

    def _faulty(self, probability, seed, **kwargs):
        return RedundantOperator(
            FaultyExecutionUnit(
                TransientFault(probability, np.random.default_rng(seed))
            )
        ), kwargs

    def test_detects_and_repairs_transients(self, conv, batch):
        operator, _ = self._faulty(0.01, seed=3)
        executor = ReliableConv2D(
            conv, operator, engine="vectorized", bucket_ceiling=10_000
        )
        out, report = executor.forward(batch)
        assert report.errors_detected > 0
        assert report.rollbacks == report.errors_detected
        assert report.persistent_failures == 0
        clean, clean_report = ReliableConv2D(
            conv, "dmr", engine="vectorized"
        ).forward(batch)
        # Every disagreeing element was repaired through scalar
        # Algorithm 3 back to the fault-free words.
        assert out.tobytes() == clean.tobytes()
        # Stats-compatible accounting: the speculative attempt of each
        # disagreeing element plus its scalar re-execution come on top
        # of the clean per-element operation count.
        assert report.operations > clean_report.operations

    def test_persistent_disagreement_marks_and_continues(self, conv, batch):
        operator, _ = self._faulty(0.9, seed=4)
        executor = ReliableConv2D(
            conv, operator, engine="vectorized",
            on_persistent_failure="mark",
        )
        out, report = executor.forward(batch, filters=[0])
        assert report.persistent_failures > 0
        assert report.failed_outputs
        for img, f, i, j in report.failed_outputs:
            assert f == 0
            assert np.isnan(out[img, f, i, j])
        # Filters outside the reliable partition stay clean.
        assert not np.isnan(out[:, 1:]).any()

    def test_persistent_disagreement_raises(self, conv, batch):
        operator, _ = self._faulty(0.9, seed=5)
        executor = ReliableConv2D(conv, operator, engine="vectorized")
        with pytest.raises(PersistentFailureError):
            executor.forward(batch)


class FlakyArrayUnit(Float64ArrayUnit):
    """Inherits binary64 arithmetic but corrupts the first product it
    computes -- a fault-injecting subclass that must not inherit the
    parent's one-pass shortcut."""

    def __init__(self):
        self.multiplies = 0

    def multiply(self, a, b, out=None):
        result = super().multiply(a, b, out=out)
        self.multiplies += 1
        if self.multiplies == 1:
            result.flat[0] += 1.0
        return result


class FlakyUnit(PerfectExecutionUnit):
    """Clean scalar arithmetic whose array form is :class:`FlakyArrayUnit`
    (the :func:`as_array_unit` hook)."""

    def __init__(self):
        self.array_unit = FlakyArrayUnit()

    def as_array_unit(self):
        return self.array_unit


class TestRedundancyCannotBeInherited:
    """Determinism is decided by exact type: a subclass of a
    deterministic unit keeps every redundant pass."""

    def test_subclass_is_not_deterministic(self):
        assert is_deterministic(Float64ArrayUnit())
        assert not is_deterministic(FlakyArrayUnit())
        assert not speculation_is_exact(RedundantOperator(FlakyUnit()))

    def test_dmr_detects_and_repairs_flaky_subclass(self, conv, batch):
        unit = FlakyUnit()
        out, report = ReliableConv2D(
            conv, RedundantOperator(unit), engine="vectorized"
        ).forward(batch)
        clean, _ = ReliableConv2D(
            conv, "dmr", engine="vectorized"
        ).forward(batch)
        # Both DMR passes ran, so the corrupted product was caught.
        assert unit.array_unit.multiplies == 2 * conv.weight.value[0].size
        assert report.errors_detected == 1
        assert report.rollbacks == 1
        assert out.tobytes() == clean.tobytes()


def test_transient_vectorized_golden():
    """Golden pin recorded before the speculative pass stopped copying
    im2col patches, and again when array injection moved to gap
    sampling: a seeded transient-fault DMR forward through the
    vectorized engine.  The unit must see identical arrays in the same
    order, so the fault draws land on the same elements and outputs
    and counters replay bit for bit."""
    rng = np.random.default_rng(2024)
    layer = Conv2D(3, 4, 5, stride=1, padding=2, rng=rng, name="golden")
    x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
    operator = RedundantOperator(
        FaultyExecutionUnit(TransientFault(1e-4, np.random.default_rng(11)))
    )
    out, report = ReliableConv2D(
        layer, operator, engine="vectorized", on_persistent_failure="mark"
    ).forward(x, filters=[0, 2])
    counters = [
        (r.operations, r.errors_detected, r.rollbacks,
         r.persistent_failures,
         [tuple(int(v) for v in p) for p in r.failed_outputs])
        for r in [report, *report.per_image]
    ]
    assert counters == [
        (86992, 16, 16, 0, []),
        (43497, 9, 9, 0, []),
        (43495, 7, 7, 0, []),
    ]
    digest = hashlib.sha256(out.tobytes())
    digest.update(repr(counters).encode())
    assert digest.hexdigest() == (
        "00eed1f980ffd3afcb8c3ff47c18f1ab16a34a9ce17a5f1b2bb040cb69332821"
    )


class _ScalarRepair(TransientFault):
    """The reference for the draw-exact repair: a subclass fails the
    exact-type gate, so its repairs run scalar ``reliable_convolution``
    on the same stream, with the same speculative passes."""


#: The five bit generators NumPy ships.
BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.Philox,
    np.random.SFC64,
    np.random.MT19937,
)


def _draw_exact_case(fault_class, op_name, probability, bit_range,
                     bit_generator, run):
    """``run(operator)``'s outcome, and the fault's activations and
    final generator state, for one seeded transient-fault operator."""
    fault = fault_class(
        probability, np.random.Generator(bit_generator(7)),
        bit_range=bit_range,
    )
    operator = OPERATOR_CLASSES[op_name](FaultyExecutionUnit(fault))
    try:
        outcome = run(operator)
    except PersistentFailureError as error:
        outcome = (
            "raised", error.operations_completed, error.errors_detected
        )
    return outcome, fault.activations, repr(fault.rng.bit_generator.state)


class TestDrawExactRepair:
    """The repair of disagreeing elements under transient faults reads
    the fault stream ahead and sends only the ops a draw hits through
    the operator; every word, counter, abort point, activation and
    the final generator state must equal the scalar repair's."""

    @pytest.mark.parametrize("op_name", sorted(OPERATOR_CLASSES))
    @pytest.mark.parametrize("probability", [1e-3, 1e-2, 0.3])
    @pytest.mark.parametrize("bit_range", [None, (31, 32)])
    def test_forward_replays_scalar_repair(
        self, conv, batch, op_name, probability, bit_range
    ):
        # One input holds an inf: its patches keep the scalar repair
        # while the image's other elements replay their chains.
        with_inf = batch.copy()
        with_inf[1, 0, 2, 3] = np.inf
        modes = ("mark", "raise")
        sweep = [
            *itertools.product(
                modes, (None, [0, 2]),
                (np.random.PCG64, np.random.MT19937), (batch,),
            ),
            *itertools.product(modes, (None,), (np.random.PCG64,), (with_inf,)),
        ]
        for mode, filters, bit_generator, x in sweep:
            def run(operator):
                out, report = ReliableConv2D(
                    conv, operator, engine="vectorized",
                    on_persistent_failure=mode,
                ).forward(x, filters=filters)
                return out.tobytes(), [
                    _report_key(r) for r in [report, *report.per_image]
                ]

            cases = [
                _draw_exact_case(
                    fault_class, op_name, probability, bit_range,
                    bit_generator, run,
                )
                for fault_class in (TransientFault, _ScalarRepair)
            ]
            assert cases[0] == cases[1], (
                mode, filters, bit_generator.__name__, x is with_inf
            )

    @pytest.mark.parametrize("op_name", sorted(OPERATOR_CLASSES))
    @pytest.mark.parametrize("probability", [1e-3, 1e-2, 0.1, 0.3])
    @pytest.mark.parametrize("bit_range", [None, (31, 32)])
    def test_element_replays_scalar_repair(
        self, op_name, probability, bit_range
    ):
        rng = np.random.default_rng(5)
        for trial, bit_generator in itertools.product(
            range(3), (np.random.PCG64, np.random.MT19937)
        ):
            patch = rng.standard_normal(24).astype(np.float32)
            weights = rng.standard_normal(24).astype(np.float32)
            bias = float(rng.standard_normal())

            def run(operator):
                bucket = LeakyBucket(ceiling=7)
                stats = ConvolutionStats()
                try:
                    value = vectorized_reliable_convolution(
                        patch, weights, bias, operator,
                        bucket=bucket, stats=stats,
                    )
                    outcome = (np.float64(value.value).tobytes(), value.ok)
                except PersistentFailureError as error:
                    outcome = (
                        "raised", error.operations_completed,
                        error.errors_detected,
                    )
                return outcome, stats, (
                    bucket.level, bucket.total_successes,
                    bucket.total_errors,
                )

            cases = [
                _draw_exact_case(
                    fault_class, op_name, probability, bit_range,
                    bit_generator, run,
                )
                for fault_class in (TransientFault, _ScalarRepair)
            ]
            assert cases[0] == cases[1], (trial, bit_generator.__name__)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_block_draws_equal_scalar_draws(self, bit_generator):
        """The premise of ``TransientFault.quiet_ops``: one
        ``random(n)`` call returns the doubles of n scalar calls and
        leaves the same state, also after an ``integers`` draw that
        leaves a buffered 32-bit word."""
        block = np.random.Generator(bit_generator(3))
        scalar = np.random.Generator(bit_generator(3))
        for prefix in (block, scalar):
            prefix.integers(0, 32)
        drawn = block.random(101)
        one_by_one = np.array([scalar.random() for _ in range(101)])
        assert drawn.tobytes() == one_by_one.tobytes()
        assert repr(block.bit_generator.state) == repr(
            scalar.bit_generator.state
        )

    @pytest.mark.parametrize("operator_class", sorted(
        OPERATOR_CLASSES.values(), key=lambda cls: cls.__name__
    ))
    def test_gate_accepts_builtin_transient(self, operator_class):
        fault = TransientFault(1e-3, np.random.default_rng(0))
        assert repair_is_draw_exact(
            operator_class(FaultyExecutionUnit(fault))
        )

    def test_gate_rejects_everything_else(self):
        class OwnGenerator(np.random.Generator):
            pass

        def dmr(fault, **unit_kwargs):
            return RedundantOperator(FaultyExecutionUnit(fault, **unit_kwargs))

        transient = TransientFault(1e-3, np.random.default_rng(0))
        rejected = {
            "generator subclass": dmr(TransientFault(
                1e-3, OwnGenerator(np.random.PCG64(0))
            )),
            "multiply only": dmr(transient, targets="multiply"),
            "float32 base": dmr(transient, base=Float32ExecutionUnit()),
            "intermittent": dmr(IntermittentFault(
                0.1, 0.5, np.random.default_rng(0)
            )),
            "fault subclass": dmr(_ScalarRepair(
                1e-3, np.random.default_rng(0)
            )),
            "fault-free unit": RedundantOperator(),
        }
        for name, operator in rejected.items():
            assert not repair_is_draw_exact(operator), name


class TestScalarFallback:
    """Operators/units the engine cannot speculate run the scalar path
    verbatim -- ``engine="vectorized"`` is always safe to request."""

    class StickyDisagree(RedundantOperator):
        def multiply(self, a, b):
            from repro.reliable.qualified import QualifiedValue

            return QualifiedValue(a * b, False)

    def test_custom_operator_not_speculative(self):
        assert not can_speculate(self.StickyDisagree())

    def test_fallback_identical_to_scalar(self, conv, batch):
        scalar = ReliableConv2D(
            conv, self.StickyDisagree(), engine="scalar",
            on_persistent_failure="mark",
        ).forward(batch, filters=[0])
        vectorized = ReliableConv2D(
            conv, self.StickyDisagree(), engine="vectorized",
            on_persistent_failure="mark",
        ).forward(batch, filters=[0])
        _assert_bitwise(scalar, vectorized, "fallback")

    def test_fallback_abort_point_identical(self, conv, batch):
        with pytest.raises(PersistentFailureError) as scalar_exc:
            ReliableConv2D(
                conv, self.StickyDisagree(), engine="scalar"
            ).forward(batch)
        with pytest.raises(PersistentFailureError) as vector_exc:
            ReliableConv2D(
                conv, self.StickyDisagree(), engine="vectorized"
            ).forward(batch)
        assert (
            scalar_exc.value.operations_completed
            == vector_exc.value.operations_completed
        )
        assert (
            scalar_exc.value.errors_detected
            == vector_exc.value.errors_detected
        )

    def test_unit_without_array_form_not_speculative(self):
        class OffByOneUnit(PerfectExecutionUnit):
            def add(self, a, b):
                return a + b + 1.0

        assert as_array_unit(OffByOneUnit()) is None
        assert not can_speculate(RedundantOperator(OffByOneUnit()))


class TestEngineRegistry:
    def test_builtin_engines_registered(self, conv, batch):
        """Every accepted engine name runs, and on a fault-free DMR
        conv all of them produce the same words."""
        assert RELIABLE_ENGINES == ("auto", "scalar", "vectorized")
        words = {
            ReliableConv2D(conv, "dmr", engine=engine)
            .forward(batch)[0].tobytes()
            for engine in RELIABLE_ENGINES
        }
        assert len(words) == 1

    def test_unknown_engine_rejected(self, conv):
        with pytest.raises(ValueError, match="unknown engine"):
            ReliableConv2D(conv, "dmr", engine="warp-drive")


class TestOperatorKindNormalization:
    """The satellite fix: instance and string constructor paths report
    the same canonical registry kind."""

    @pytest.mark.parametrize("operator, kind", [
        (PlainOperator(), "plain"),
        (RedundantOperator(), "dmr"),
        (TMROperator(), "tmr"),
    ])
    def test_instance_reports_registry_kind(self, conv, batch, operator, kind):
        _, report = ReliableConv2D(conv, operator).forward(
            batch, filters=[0]
        )
        assert report.operator_kind == kind

    def test_string_path_unchanged(self, conv, batch):
        _, report = ReliableConv2D(conv, "dmr").forward(batch, filters=[0])
        assert report.operator_kind == "dmr"

    def test_unregistered_subclass_falls_back_to_class_name(self, conv):
        class Bespoke(RedundantOperator):
            pass

        executor = ReliableConv2D(conv, Bespoke())
        assert executor._operator_kind == "Bespoke"
