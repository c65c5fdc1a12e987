"""Speculate-then-verify engine vs scalar Algorithm 3.

The acceptance bar for the vectorized engine: >= 20x faster than the
scalar per-operation path on the benchmark layer (the scaled Table 1
geometry; ``REPRO_FULL=1`` for the paper's exact layer), with
bitwise-identical outputs and reports.  Observed speedups are
typically in the hundreds -- 20x leaves ample headroom for slow CI
machines.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import full_scale
from repro.data import render_sign
from repro.faults.bitflip import bit_range_bounds, flip_bit32_array
from repro.faults.injector import FaultyExecutionUnit
from repro.faults.models import TransientFault
from repro.nn import Conv2D
from repro.reliable.executor import ReliableConv2D
from repro.reliable.operators import RedundantOperator
from tests.support.oracles import transient_apply_array_reference

MIN_SPEEDUP = 20.0
#: The draw-exact repair must take at most this share of the scalar
#: repair's time on the bench layer.
MAX_REPAIR_TIME_SHARE = 1 / 3
#: ``TransientFault.apply_array`` must take at most this share of the
#: boolean-mask form's time on the campaign geometry: well under it at
#: campaign rates (about one fired element per call), and no worse
#: than noise far above the per-element crossover.
MAX_INJECTION_TIME_SHARE = {1e-3: 0.3, 0.3: 1.25}


@pytest.fixture(scope="module")
def bench_layer():
    rng = np.random.default_rng(0)
    if full_scale():
        layer = Conv2D(3, 96, 11, stride=4, rng=rng, name="conv1")
        image = render_sign(0, size=227)[None]
        description = "96 filters 11x11x3, 227x227 input (paper scale)"
    else:
        layer = Conv2D(3, 8, 5, stride=2, rng=rng, name="conv1")
        image = render_sign(0, size=32)[None]
        description = "8 filters 5x5x3, 32x32 input (scaled)"
    return layer, image, description


def _timed_forward(executor, image):
    start = time.perf_counter()
    out, report = executor.forward(image)
    return out, report, time.perf_counter() - start


def test_vectorized_dmr_speedup_and_bitwise_parity(bench_layer):
    layer, image, description = bench_layer
    scalar = ReliableConv2D(layer, "dmr", engine="scalar")
    vectorized = ReliableConv2D(layer, "dmr", engine="vectorized")

    # Warm both paths (patch extraction, allocator) outside timing.
    vectorized.forward(image)
    out_s, rep_s, scalar_seconds = _timed_forward(scalar, image)
    out_v, rep_v, vectorized_seconds = _timed_forward(vectorized, image)

    assert out_s.tobytes() == out_v.tobytes()
    assert (rep_s.operations, rep_s.errors_detected, rep_s.rollbacks,
            rep_s.persistent_failures, rep_s.operator_kind) == (
            rep_v.operations, rep_v.errors_detected, rep_v.rollbacks,
            rep_v.persistent_failures, rep_v.operator_kind)

    speedup = scalar_seconds / vectorized_seconds
    print(
        f"\n{description}: scalar {scalar_seconds:.3f}s, "
        f"vectorized {vectorized_seconds*1e3:.2f}ms, {speedup:.0f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized DMR only {speedup:.1f}x over scalar "
        f"({scalar_seconds:.3f}s vs {vectorized_seconds:.4f}s)"
    )


def test_vectorized_injection_overhead_stays_bounded(bench_layer):
    """Array-level transient injection (speculation + scalar repair of
    disagreeing elements) must stay far below the scalar faulty path
    -- the property that lets campaigns afford bigger fault cells."""
    layer, image, _ = bench_layer

    def faulty_executor(engine, seed):
        return ReliableConv2D(
            layer,
            RedundantOperator(FaultyExecutionUnit(
                TransientFault(1e-4, np.random.default_rng(seed))
            )),
            bucket_ceiling=100_000,
            engine=engine,
        )

    _, rep_scalar, scalar_seconds = _timed_forward(
        faulty_executor("scalar", 1), image
    )
    _, rep_vector, vectorized_seconds = _timed_forward(
        faulty_executor("vectorized", 1), image
    )
    # Both sampled the same fault process and both detected activity.
    assert rep_vector.errors_detected > 0
    assert rep_scalar.errors_detected > 0
    assert vectorized_seconds < scalar_seconds / 5


class _ScalarRepair(TransientFault):
    """A subclass fails the draw-exact gate's exact-type check, so its
    repairs run scalar ``reliable_convolution``: the reference."""


def test_draw_exact_repair_speedup_and_bitwise_parity(bench_layer):
    """Under DMR transient faults the vectorized engine repairs a
    disagreeing element by reading the fault stream ahead and sending
    only the ops a draw hits through the operator.  It must take at
    most a third of the scalar repair's time (best of 3), and leave
    every output word, counter, activation and the final generator
    state as the scalar repair does."""
    layer, image, _ = bench_layer

    def best_of_three(fault_class):
        runs = []
        for _ in range(3):
            fault = fault_class(1e-3, np.random.default_rng(3))
            executor = ReliableConv2D(
                layer,
                RedundantOperator(FaultyExecutionUnit(fault)),
                bucket_ceiling=100_000,
                engine="vectorized",
            )
            out, report, seconds = _timed_forward(executor, image)
            runs.append((seconds, out, report, fault))
        return min(runs, key=lambda run: run[0])

    def counters(report):
        return [
            (r.operations, r.errors_detected, r.rollbacks,
             r.persistent_failures, r.failed_outputs)
            for r in [report, *report.per_image]
        ]

    exact_seconds, out_e, rep_e, fault_e = best_of_three(TransientFault)
    scalar_seconds, out_s, rep_s, fault_s = best_of_three(_ScalarRepair)

    assert out_e.tobytes() == out_s.tobytes()
    assert counters(rep_e) == counters(rep_s)
    assert rep_e.rollbacks > 0
    assert fault_e.activations == fault_s.activations
    assert repr(fault_e.rng.bit_generator.state) == repr(
        fault_s.rng.bit_generator.state
    )
    print(
        f"\ntransient DMR repair: scalar {scalar_seconds * 1e3:.1f} ms, "
        f"draw-exact {exact_seconds * 1e3:.1f} ms, "
        f"{scalar_seconds / exact_seconds:.1f}x"
    )
    assert exact_seconds <= scalar_seconds * MAX_REPAIR_TIME_SHARE, (
        f"draw-exact repair {exact_seconds * 1e3:.1f} ms vs scalar "
        f"repair {scalar_seconds * 1e3:.1f} ms"
    )


def _boolean_mask_apply_array(fault, values):
    """The timing baseline: transient injection by one fire draw per
    element, the sampling gap sampling replaced.  Every fired element
    takes one bit draw and flips in one :func:`flip_bit32_array` call."""
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


@pytest.mark.parametrize("probability", sorted(MAX_INJECTION_TIME_SHARE))
def test_transient_injection_cost_and_parity(probability):
    """590 ``apply_array`` calls on a campaign-trial result array
    (1, 2, 21, 21), best of 3 with the boolean-mask baseline
    interleaved.  Outputs, activations, the carried gap and reserve,
    and the final generator state must match the element-by-element
    reference exactly."""
    values = np.random.default_rng(0).standard_normal((1, 2, 21, 21))
    forms = {
        "apply_array": TransientFault.apply_array,
        "boolean mask": _boolean_mask_apply_array,
    }
    best = {}
    for _ in range(3):
        for name, apply in forms.items():
            fault = TransientFault(probability, np.random.default_rng(5))
            start = time.perf_counter()
            outs = [apply(fault, values) for _ in range(590)]
            seconds = time.perf_counter() - start
            if name not in best or seconds < best[name][0]:
                best[name] = (seconds, outs, fault)
    seconds, outs, fault = best["apply_array"]
    mask_seconds = best["boolean mask"][0]

    reference = TransientFault(probability, np.random.default_rng(5))
    ref_outs = [
        transient_apply_array_reference(reference, values)
        for _ in range(590)
    ]
    assert [out.tobytes() for out in outs] == [
        out.tobytes() for out in ref_outs
    ]
    assert fault.activations == reference.activations > 0
    assert fault.array_gap == reference.array_gap
    assert fault.gap_reserve.tobytes() == reference.gap_reserve.tobytes()
    assert repr(fault.rng.bit_generator.state) == repr(
        reference.rng.bit_generator.state
    )
    share = seconds / mask_seconds
    print(
        f"\ntransient injection p={probability:g}: boolean mask "
        f"{mask_seconds * 1e3:.1f} ms, apply_array {seconds * 1e3:.1f} ms "
        f"({share:.2f} of boolean mask, {fault.activations} fired)"
    )
    assert share <= MAX_INJECTION_TIME_SHARE[probability], (
        f"apply_array {seconds * 1e3:.1f} ms vs boolean mask "
        f"{mask_seconds * 1e3:.1f} ms at p={probability:g}"
    )
