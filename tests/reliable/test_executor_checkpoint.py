"""ReliableConv2D, layer-level redundancy, checkpoint, lockstep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import FaultyExecutionUnit
from repro.faults.models import PermanentFault, TransientFault
from repro.nn import Conv2D
from repro.reliable.checkpoint import CheckpointedSegment, RollbackPolicy
from repro.reliable.errors import (
    LockstepMismatchError,
    PersistentFailureError,
)
from repro.reliable.executor import ReliableConv2D, redundant_layer_forward
from repro.reliable.leaky_bucket import LeakyBucket
from repro.reliable.lockstep import LockstepPair
from repro.reliable.operators import RedundantOperator


@pytest.fixture
def conv(rng):
    return Conv2D(2, 3, 3, stride=1, rng=rng, name="conv")


@pytest.fixture
def batch(rng):
    return rng.standard_normal((1, 2, 6, 6)).astype(np.float32)


class TestReliableConv2D:
    def test_matches_native_forward(self, conv, batch):
        native = conv.forward(batch)
        out, report = ReliableConv2D(conv, "plain").forward(batch)
        np.testing.assert_allclose(out, native, atol=1e-6)
        assert report.errors_detected == 0

    def test_partial_filters_mix_native_and_reliable(self, conv, batch):
        native = conv.forward(batch)
        out, report = ReliableConv2D(conv, "dmr").forward(
            batch, filters=[1]
        )
        np.testing.assert_allclose(out, native, atol=1e-6)
        # Only one filter's worth of qualified operations.
        per_filter_outputs = out.shape[2] * out.shape[3]
        ops_per_output = 2 * 2 * 9 + 1  # mul+acc per tap, bias
        assert report.operations == per_filter_outputs * ops_per_output

    def test_recovers_under_transient_faults(self, conv, batch, rng):
        native = conv.forward(batch)
        unit = FaultyExecutionUnit(TransientFault(0.005, rng))
        executor = ReliableConv2D(
            conv, RedundantOperator(unit), bucket_ceiling=10_000
        )
        out, report = executor.forward(batch, filters=[0])
        np.testing.assert_allclose(out, native, atol=1e-5)
        assert report.errors_detected > 0
        assert report.rollbacks == report.errors_detected

    def test_mark_mode_isolates_persistent_failure(self, conv, batch, rng):
        class StickyDisagree(RedundantOperator):
            def multiply(self, a, b):
                from repro.reliable.qualified import QualifiedValue

                return QualifiedValue(a * b, False)

        executor = ReliableConv2D(
            conv, StickyDisagree(), on_persistent_failure="mark"
        )
        out, report = executor.forward(batch, filters=[0])
        assert report.persistent_failures > 0
        assert np.isnan(out[0, 0]).all()     # failed filter marked
        assert not np.isnan(out[0, 1:]).any()  # others intact

    def test_raise_mode_propagates(self, conv, batch):
        class StickyDisagree(RedundantOperator):
            def add(self, a, b):
                from repro.reliable.qualified import QualifiedValue

                return QualifiedValue(a + b, False)

        executor = ReliableConv2D(conv, StickyDisagree())
        with pytest.raises(PersistentFailureError):
            executor.forward(batch)

    def test_invalid_failure_mode(self, conv):
        with pytest.raises(ValueError):
            ReliableConv2D(conv, "dmr", on_persistent_failure="ignore")


class TestLayerLevelRedundancy:
    def test_dmr_deterministic_layer_agrees(self, conv, batch):
        out, report = redundant_layer_forward(conv, batch, copies=2)
        np.testing.assert_array_equal(out, conv.forward(batch))
        assert report.rollbacks == 0

    def test_tmr_masks_minority_wrong_copy(self, batch, rng):
        class FlakyLayer:
            """Wrong result on the second of every three calls."""

            def __init__(self):
                self.calls = 0

            def forward(self, x):
                self.calls += 1
                base = np.ones((1, 4), dtype=np.float32)
                if self.calls % 3 == 2:
                    return base * 99.0
                return base

        out, report = redundant_layer_forward(
            FlakyLayer(), batch, copies=3
        )
        np.testing.assert_array_equal(out, np.ones((1, 4)))

    def test_dmr_rollback_then_abort(self, batch):
        class NeverAgrees:
            def __init__(self):
                self.calls = 0

            def forward(self, x):
                self.calls += 1
                return np.full((1, 2), self.calls, dtype=np.float32)

        with pytest.raises(PersistentFailureError):
            redundant_layer_forward(
                NeverAgrees(), batch, copies=2, max_rollbacks=2
            )

    def test_copies_validation(self, conv, batch):
        with pytest.raises(ValueError):
            redundant_layer_forward(conv, batch, copies=1)

    def test_dmr_identical_nan_outputs_agree(self, batch):
        """A layer that legitimately computes NaN identically in both
        copies must not roll back forever (word comparison, matching
        the operator-level qualifiers)."""

        class NaNLayer:
            def forward(self, x):
                out = np.ones((1, 3), dtype=np.float32)
                out[0, 1] = np.nan
                return out

        out, report = redundant_layer_forward(NaNLayer(), batch, copies=2)
        assert np.isnan(out[0, 1])
        assert report.rollbacks == 0

    def test_dmr_detects_signed_zero_flip(self, batch):
        class SignFlipZero:
            def __init__(self):
                self.calls = 0

            def forward(self, x):
                self.calls += 1
                value = 0.0 if self.calls % 2 == 1 else -0.0
                return np.full((1, 2), value, dtype=np.float32)

        with pytest.raises(PersistentFailureError):
            redundant_layer_forward(
                SignFlipZero(), batch, copies=2, max_rollbacks=1
            )

    def test_tmr_vote_elects_majority_zero_word(self, batch):
        """[+0.0, -0.0, -0.0] must elect -0.0 regardless of whether
        unrelated elements force the per-element vote path (the old
        float ``==`` fast path saw a spurious +0.0 majority)."""
        from repro.reliable.executor import _elementwise_vote

        alone = np.array([[0.0], [-0.0], [-0.0]], dtype=np.float32)
        value_alone, ok_alone = _elementwise_vote(alone)
        # A neighbour with no majority forces the per-element path.
        with_neighbour = np.array(
            [[0.0, 1.0], [-0.0, 2.0], [-0.0, 3.0]], dtype=np.float32
        )
        value_slow, ok_slow = _elementwise_vote(with_neighbour)
        assert ok_alone and not ok_slow
        assert np.signbit(value_alone[0])
        assert np.signbit(value_slow[0])

    def test_tmr_identical_nan_copies_take_fast_path(self, batch):
        """All-copies-identical NaN words hold a word majority: value
        voted through, no rollback (float ``==`` would spin)."""
        from repro.reliable.executor import _elementwise_vote

        stacked = np.full((3, 2, 2), np.nan, dtype=np.float32)
        value, ok = _elementwise_vote(stacked)
        assert ok
        assert np.isnan(value).all()


class TestCheckpointedSegment:
    def test_valid_first_try(self):
        segment = CheckpointedSegment(
            compute=lambda: 42, validate=lambda v: v == 42
        )
        assert segment.run() == 42
        assert segment.rollbacks_performed == 0

    def test_rollback_then_success(self):
        attempts = []

        def compute():
            attempts.append(1)
            return len(attempts)

        segment = CheckpointedSegment(
            compute, validate=lambda v: v >= 2,
            policy=RollbackPolicy(max_rollbacks=3),
        )
        assert segment.run() == 2
        assert segment.rollbacks_performed == 1

    def test_exhausted_rollbacks_abort(self):
        segment = CheckpointedSegment(
            compute=lambda: 0, validate=lambda v: False,
            policy=RollbackPolicy(max_rollbacks=2),
        )
        with pytest.raises(PersistentFailureError):
            segment.run()

    def test_bucket_overflow_aborts_early(self):
        bucket = LeakyBucket(factor=2, ceiling=3)
        segment = CheckpointedSegment(
            compute=lambda: 0, validate=lambda v: False,
            policy=RollbackPolicy(max_rollbacks=100, bucket=bucket),
        )
        with pytest.raises(PersistentFailureError):
            segment.run()
        assert bucket.overflowed

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RollbackPolicy(max_rollbacks=-1)


class TestLockstep:
    def test_agreeing_replicas(self):
        pair = LockstepPair(lambda v: v * 2, lambda v: v * 2)
        assert pair.run([1, 2, 3]) == [2, 4, 6]
        assert pair.steps_completed == 3

    def test_mismatch_raises_with_step(self):
        calls = {"n": 0}

        def flaky(v):
            calls["n"] += 1
            return v if calls["n"] < 3 else v + 1

        pair = LockstepPair(lambda v: v, flaky)
        with pytest.raises(LockstepMismatchError) as exc_info:
            pair.run([0, 0, 0, 0])
        assert exc_info.value.step == 2

    def test_array_comparison(self, rng):
        pair = LockstepPair(
            lambda v: v + 1.0, lambda v: v + 1.0
        )
        out = pair.step(np.zeros(4))
        np.testing.assert_array_equal(out, np.ones(4))

    def test_reset_models_system_reset(self):
        pair = LockstepPair(lambda v: v, lambda v: v)
        pair.run([1, 2])
        pair.reset()
        assert pair.steps_completed == 0
        assert pair.was_reset
