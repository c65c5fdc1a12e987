"""Vectorized speculate-then-verify reliable execution.

The scalar Algorithm 3 path is paper-faithful and paper-slow: every
multiply-accumulate is a Python call chain through an operator and the
leaky bucket (Table 1: 301.91 s plain / 648.87 s redundant for one
AlexNet conv layer).  This module keeps Algorithm 3's *semantics* --
detection by redundant comparison, operation rollback, leaky-bucket
abort -- while moving the arithmetic where the hardware wants it, the
SIHFT way (duplicate in bulk, check in bulk, repair only where the
check fires):

1. **Speculate.** Run the whole convolution ``executions_per_op``
   times as NumPy array passes through an
   :class:`~repro.reliable.execution_unit.ArrayExecutionUnit` (DMR =
   2 passes, TMR = 3).  Accumulation is tap-sequential, and each tap
   reads its operands as a window of the padded input (kept as
   ``kw`` column-shifted copies, :func:`_shifted_columns`, instead of
   an im2col patch copy), so every output element's float chain is
   exactly the scalar path's chain over its im2col patch.  A
   *deterministic* unit (:func:`is_deterministic`, decided by exact
   type) provably repeats the same words on every pass, so one pass
   stands in for all of them (:func:`_speculative_passes`) -- that is
   what makes the exact mode faster than native redundancy, not just
   equal to it.
2. **Verify.** Compare the passes element-wise on 64-bit storage
   words (``float64.view(int64)``): DMR word-compare, TMR word-vote
   with the scalar voter's earliest-first tie-break.  Identical NaN
   words agree; ``+0.0`` vs ``-0.0`` disagree -- the same comparator
   the (fixed) scalar operators use.
3. **Repair.** Only disagreeing output elements re-execute through
   the scalar Algorithm 3 rollback path
   (:func:`~repro.reliable.convolution.reliable_convolution`), in
   traversal order, against the *shared per-image leaky bucket*;
   agreed runs leak the bucket in bulk.  Bucket overflow aborts (or
   marks) exactly as the scalar engine would.

Equivalence contract
--------------------
When the operator is one of the built-ins (exact type ``plain`` /
``dmr`` / ``tmr``) and its unit is **deterministic** -- fault-free
built-in arithmetic, or built-in fault injection whose corruption
is a pure function of the value (stuck-at) -- every pass produces
identical words, nothing disagrees, and the engine's outputs,
``ExecutionReport`` counters, abort points and ``failed_outputs`` are
**bitwise identical** to the scalar engine's.  That is the
condition :func:`speculation_is_exact` checks and the ``"auto"``
policy requires.  One caveat lies below both engines: when a single
operation meets two *different* NaN words, IEEE 754 leaves open which
one propagates, and NumPy's scalar and array loops choose
differently, so such elements may differ in NaN sign/payload.

Under *stochastic* array injection (``engine="vectorized"`` with e.g.
a transient fault model) the engine is a different -- equally valid --
sampling of the same fault process: faults corrupt whole speculative
passes, disagreement is detected at output-element granularity (one
detected error + one rollback per disagreeing element feeding the
shared bucket), and the repair re-execution runs the scalar
per-operation loop with the same faulty unit.  Reports stay
stats-compatible (``errors_detected``/``rollbacks``/abort accounting
follow the same bucket), but are not a bit-replay of a scalar run --
per-operation and per-pass fault streams consume randomness
differently by construction.

Operators of unregistered classes, or units with no array form, fall
back to the scalar engine wholesale, so ``engine="vectorized"`` is
always safe to request.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.reliable.bits import word_view
from repro.reliable.convolution import ConvolutionStats, reliable_convolution
from repro.reliable.errors import PersistentFailureError
from repro.reliable.execution_unit import (
    ArrayExecutionUnit,
    Float32ArrayUnit,
    Float64ArrayUnit,
    as_array_unit,
)
from repro.reliable.executor import (
    ExecutionReport,
    ReliableConv2D,
    _ImageSlice,
)
from repro.reliable.leaky_bucket import LeakyBucket
from repro.reliable.operators import (
    Operator,
    PlainOperator,
    RedundantOperator,
    TMROperator,
)
from repro.reliable.qualified import QualifiedValue

#: Exact operator types the engine knows how to speculate.  Subclasses
#: are excluded on purpose: they may override multiply/add semantics
#: the speculative passes would silently bypass.
_SPECULATIVE_TYPES = (PlainOperator, RedundantOperator, TMROperator)


def can_speculate(operator: Operator) -> bool:
    """Whether the engine can run this operator speculatively at all
    (built-in operator type and a unit with an array form)."""
    return (
        type(operator) in _SPECULATIVE_TYPES
        and as_array_unit(operator.unit) is not None
    )


def is_deterministic(unit: ArrayExecutionUnit) -> bool:
    """Whether every execution of one operation on ``unit`` provably
    returns the same words -- the property that lets one speculative
    pass stand in for all of an operator's redundant executions.

    Decided by exact type, the rule
    :func:`~repro.reliable.execution_unit.as_array_unit` uses: a
    subclass may override the arithmetic (inject faults, say), so it
    never inherits its parent's guarantee and keeps every redundant
    pass.  Deterministic are the fault-free built-ins
    (:class:`~repro.reliable.execution_unit.Float64ArrayUnit`,
    :class:`~repro.reliable.execution_unit.Float32ArrayUnit`) and an
    :class:`~repro.faults.injector.ArrayFaultyExecutionUnit` whose
    fault is exactly a stuck-at
    :class:`~repro.faults.models.PermanentFault` over a deterministic
    base: it corrupts every pass identically.
    """
    # Imported here: repro.faults builds on this package.
    from repro.faults.injector import ArrayFaultyExecutionUnit
    from repro.faults.models import PermanentFault

    if type(unit) is ArrayFaultyExecutionUnit:
        return type(unit.fault) is PermanentFault and is_deterministic(
            unit.base
        )
    return type(unit) in (Float64ArrayUnit, Float32ArrayUnit)


def speculation_is_exact(operator: Operator) -> bool:
    """Whether speculation is provably bit-identical to the scalar
    Algorithm 3 path: a speculative operator whose array unit is
    deterministic (:func:`is_deterministic`), so every redundant pass
    yields the same words and the verify step can never fire."""
    if type(operator) not in _SPECULATIVE_TYPES:
        return False
    unit = as_array_unit(operator.unit)
    return unit is not None and is_deterministic(unit)


def _shifted_columns(
    xp: np.ndarray, kernel: tuple[int, int], stride: int
) -> np.ndarray:
    """The padded input ``xp`` ``(n, c, hp, wp)`` as ``kw``
    column-shifted copies ``(kw, n, c, hp, ow)``.

    Copy ``v`` holds padded columns ``v, v + stride, ...`` -- the
    columns kernel column ``v`` reads across one output row -- so tap
    ``(c, u, v)``'s operands are the rows ``u, u + stride, ...`` of
    ``columns[v, :, c]``: at stride 1 one contiguous ``(oh, ow)``
    block per image.  ``kw`` copies of the input replace the
    ``kh * kw``-fold im2col patch copy, and every element holds the
    word its im2col column holds, so the accumulation chain is
    untouched.
    """
    kw = kernel[1]
    out_w = (xp.shape[3] - kw) // stride + 1
    return np.stack([
        xp[..., v : v + stride * out_w : stride] for v in range(kw)
    ])


def _speculative_pass(
    columns: np.ndarray,
    kernel: tuple[int, int],
    stride: int,
    weights: np.ndarray,
    bias: np.ndarray,
    unit: ArrayExecutionUnit,
) -> np.ndarray:
    """One full redundant execution of the reliable partition.

    ``columns`` is the padded float64 input as
    :func:`_shifted_columns` lays it out, ``weights`` ``(F, L)`` with
    ``L = c * kh * kw`` taps in im2col order ``(c, u, v)``, ``bias``
    ``(F,)``.  Accumulates tap-by-tap -- the vectorisation is across
    output elements, never across the reduction, so each element's
    operation chain (L multiplies, L accumulates, one bias add, in
    order) reproduces the scalar engine's float sequence exactly.  The
    accumulator and product scratch are allocated once and offered to
    the unit via the ``out`` hint (value-identical either way; see
    :class:`~repro.reliable.execution_unit.ArrayExecutionUnit`).
    Returns ``(n, F, oh, ow)`` float64.
    """
    kh, kw = kernel
    _, n, channels, height, out_w = columns.shape
    out_h = (height - kh) // stride + 1
    acc = np.zeros((n, weights.shape[0], out_h, out_w), dtype=np.float64)
    scratch = np.empty_like(acc)
    taps = itertools.product(range(channels), range(kh), range(kw))
    with np.errstate(
        over="ignore", invalid="ignore", divide="ignore", under="ignore"
    ):
        for t, (c, u, v) in enumerate(taps):
            xt = columns[v, :, c, None, u : u + stride * out_h : stride]
            wt = weights[:, t][None, :, None, None]    # (1, F, 1, 1)
            acc = unit.add(
                acc, unit.multiply(xt, wt, out=scratch), out=acc
            )
        return unit.add(acc, bias[None, :, None, None], out=acc)


def _speculative_passes(
    xp: np.ndarray,
    kernel: tuple[int, int],
    stride: int,
    weights: np.ndarray,
    bias: np.ndarray,
    unit: ArrayExecutionUnit,
    operator: Operator,
) -> list[np.ndarray]:
    """The redundant executions the verify step compares, over the
    padded float64 input ``xp`` ``(n, c, hp, wp)``.

    A deterministic unit (:func:`is_deterministic`) provably returns
    identical words on every execution of the same operation, so its
    ``executions_per_op`` passes would be bit-for-bit copies and the
    verify step could never fire -- one pass suffices and the others
    are skipped.  (The fast-path report derives its counters from the
    element count, not the pass count, so skipping the copies changes
    no counter either.)  Every other unit -- stochastic fault
    injection under ``engine="vectorized"``, or any subclass -- keeps
    its real per-pass executions, one independent fault stream each.
    """
    n_passes = (
        1 if is_deterministic(unit) else operator.executions_per_op
    )
    columns = _shifted_columns(xp, kernel, stride)
    return [
        _speculative_pass(columns, kernel, stride, weights, bias, unit)
        for _ in range(n_passes)
    ]


def _verify(passes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Word-compare/vote the speculative passes.

    Returns ``(value, disagree)``: the qualified value per element and
    a mask of elements no pass majority agrees on.  Mirrors the scalar
    qualifiers bit for bit: DMR is a word comparator, TMR a word voter
    with the earliest-pass tie-break of
    :func:`repro.reliable.voting.majority_vote`.
    """
    if len(passes) == 1:
        return passes[0], np.zeros(passes[0].shape, dtype=bool)
    words = [word_view(p) for p in passes]
    if len(passes) == 2:
        return passes[0], words[0] != words[1]
    a01 = words[0] == words[1]
    a02 = words[0] == words[2]
    a12 = words[1] == words[2]
    value = np.where(a01 | a02, passes[0], passes[1])
    return value, ~(a01 | a02 | a12)


def speculative_forward(
    executor: ReliableConv2D,
    x: np.ndarray,
    filters: list[int] | None = None,
) -> tuple[np.ndarray, ExecutionReport]:
    """The ``"vectorized"`` engine for :class:`ReliableConv2D`.

    See the module docstring for the speculate/verify/repair scheme
    and the equivalence contract.  Falls back to the scalar engine
    when the operator/unit pair cannot be speculated.
    """
    operator = executor.operator
    unit = (
        as_array_unit(operator.unit)
        if type(operator) in _SPECULATIVE_TYPES
        else None
    )
    if unit is None:
        return executor._forward_scalar(x, filters)
    patches, wmat, bias, sorted_filters, out, report = executor._prepare(
        x, filters
    )
    n, out_h, out_w, taps = patches.shape
    n_filters = len(sorted_filters)
    stats = ConvolutionStats()
    if n == 0 or n_filters == 0:
        executor._fill_report(report, stats)
        return out, report

    # The padded input holding the float32 words im2col reads, widened
    # once to float64: the taps' operands are windows of it.
    layer = executor.layer
    pad = layer.padding
    _, channels, height, width = np.shape(x)
    xp = np.zeros((n, channels, height + 2 * pad, width + 2 * pad))
    xp[:, :, pad : pad + height, pad : pad + width] = np.asarray(
        x, dtype=np.float32
    )
    weights64 = wmat[sorted_filters].astype(np.float64)
    bias64 = bias[sorted_filters].astype(np.float64)
    passes = _speculative_passes(
        xp, (layer.kernel_size, layer.kernel_size), layer.stride,
        weights64, bias64, unit, operator,
    )
    value, disagree = _verify(passes)
    # Store through the same float64 -> float32 cast as the scalar
    # per-element assignment; sNaN carriers signal "invalid" on the
    # narrowing, exactly as the scalar store would quiet them.
    with np.errstate(invalid="ignore", over="ignore"):
        out[:, sorted_filters] = value.astype(np.float32)

    ops_per_element = 2 * taps + 1
    per_image_elements = n_filters * out_h * out_w
    if not disagree.any():
        # Fast path: every element qualified on the first attempt, so
        # the scalar engine would have counted one operation per
        # multiply/accumulate/bias and never touched a bucket level.
        stats.operations = n * per_image_elements * ops_per_element
        report.per_image = [
            ExecutionReport(
                operations=per_image_elements * ops_per_element,
                operator_kind=report.operator_kind,
            )
            for _ in range(n)
        ]
        executor._fill_report(report, stats)
        return out, report

    # Repair path: walk disagreeing elements in the scalar engine's
    # traversal order (image -> filter -> row -> column), feeding the
    # shared per-image bucket.  Runs of agreed elements leak the
    # bucket in bulk; each disagreeing element costs one detected
    # error (its speculative attempt) and one rollback, then
    # re-executes through scalar Algorithm 3 with the same bucket.
    for img in range(n):
        image_slice = _ImageSlice(report, stats)
        bucket = LeakyBucket(
            factor=executor.bucket_factor, ceiling=executor.bucket_ceiling
        )
        cursor = 0
        for fi, i, j in np.argwhere(disagree[img]):
            flat = (fi * out_h + i) * out_w + j
            clean = int(flat - cursor)
            if clean:
                stats.operations += clean * ops_per_element
                bucket.record_successes(clean * ops_per_element)
            cursor = int(flat) + 1
            f = sorted_filters[fi]
            stats.operations += 1
            stats.errors_detected += 1
            overflow = bucket.record_error()
            stats.bucket_peak = max(stats.bucket_peak, bucket.level)
            if overflow:
                _persistent_failure(
                    executor, report, stats, out, bucket,
                    (img, f, int(i), int(j)),
                    PersistentFailureError(
                        "leaky bucket overflowed: persistent execution "
                        "failure",
                        operations_completed=stats.operations,
                        errors_detected=stats.errors_detected,
                    ),
                )
                continue
            stats.rollbacks += 1
            try:
                result = reliable_convolution(
                    patches[img, i, j],
                    wmat[f],
                    float(bias[f]),
                    operator,
                    bucket=bucket,
                    stats=stats,
                )
                out[img, f, i, j] = result.value
            except PersistentFailureError as error:
                _persistent_failure(
                    executor, report, stats, out, bucket,
                    (img, f, int(i), int(j)), error,
                )
        tail = per_image_elements - cursor
        if tail:
            stats.operations += tail * ops_per_element
            bucket.record_successes(tail * ops_per_element)
        report.per_image.append(image_slice.snapshot())
    executor._fill_report(report, stats)
    return out, report


def _persistent_failure(
    executor: ReliableConv2D,
    report: ExecutionReport,
    stats: ConvolutionStats,
    out: np.ndarray,
    bucket: LeakyBucket,
    position: tuple[int, int, int, int],
    error: PersistentFailureError,
) -> None:
    """Shared abort handling, identical to the scalar engine's."""
    report.persistent_failures += 1
    if executor.on_persistent_failure == "raise":
        executor._fill_report(report, stats)
        raise error
    report.failed_outputs.append(position)
    out[position[0], position[1], position[2], position[3]] = np.nan
    bucket.reset()


def vectorized_reliable_convolution(
    patch,
    weights,
    bias: float,
    operator: Operator,
    bucket: LeakyBucket | None = None,
    stats: ConvolutionStats | None = None,
) -> QualifiedValue:
    """Speculate-then-verify form of one Algorithm 3 output element.

    Drop-in signature twin of
    :func:`~repro.reliable.convolution.reliable_convolution` used by
    the campaign targets: the element's dot product runs as
    ``executions_per_op`` array passes, the results verify on storage
    words, and a disagreement rolls the element back through the
    scalar path against the shared ``bucket``.  Falls back to the
    scalar function entirely when the operator cannot be speculated.
    """
    unit = (
        as_array_unit(operator.unit)
        if type(operator) in _SPECULATIVE_TYPES
        else None
    )
    if unit is None:
        return reliable_convolution(
            patch, weights, bias, operator, bucket=bucket, stats=stats
        )
    patch = np.asarray(patch, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if patch.shape != weights.shape or patch.ndim != 1:
        raise ValueError(
            f"length mismatch: {patch.shape} vs {weights.shape}"
        )
    bucket = bucket if bucket is not None else LeakyBucket()
    stats = stats if stats is not None else ConvolutionStats()
    # The patch as an L-channel 1x1 input: one 1x1 tap per channel
    # walks the same pass in the same (c, u, v) order.
    xp = patch.reshape(1, -1, 1, 1)
    wrow = weights.reshape(1, -1)
    brow = np.asarray([bias], dtype=np.float64)
    passes = _speculative_passes(
        xp, (1, 1), 1, wrow, brow, unit, operator
    )
    value, disagree = _verify(passes)
    ops = 2 * patch.size + 1
    if not disagree[0, 0, 0, 0]:
        stats.operations += ops
        bucket.record_successes(ops)
        return QualifiedValue(float(value[0, 0, 0, 0]), True)
    stats.operations += 1
    stats.errors_detected += 1
    overflow = bucket.record_error()
    stats.bucket_peak = max(stats.bucket_peak, bucket.level)
    if overflow:
        raise PersistentFailureError(
            "leaky bucket overflowed: persistent execution failure",
            operations_completed=stats.operations,
            errors_detected=stats.errors_detected,
        )
    stats.rollbacks += 1
    return reliable_convolution(
        patch, weights, bias, operator, bucket=bucket, stats=stats
    )
