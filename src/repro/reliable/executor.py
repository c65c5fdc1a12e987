"""Reliable execution of whole network layers.

Two granularities, matching the paper's discussion of rollback
distance:

* :class:`ReliableConv2D` -- operation granularity.  Every multiply
  and accumulate of a convolution layer goes through a qualified
  operator with per-operation rollback (Algorithm 3 applied across the
  layer).  The ``"scalar"`` engine is the configuration behind the
  paper's Table 1 and is deliberately slow in Python (the paper
  reports 301.91 s plain / 648.87 s redundant for AlexNet's first
  layer on a desktop CPU); the ``"vectorized"`` engine
  (:mod:`repro.reliable.vectorized`) produces bitwise-identical
  results by speculating the whole layer as array passes and
  verifying on storage words, and is the default wherever that
  equivalence is provable (``engine="auto"``).
* :func:`redundant_layer_forward` -- layer granularity.  The whole
  layer runs N times vectorised and the outputs are compared/voted.
  This is the temporal-redundancy checkpoint the paper describes in
  Section II.B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers.conv import Conv2D
from repro.reliable.convolution import ConvolutionStats, reliable_convolution
from repro.reliable.errors import PersistentFailureError
from repro.reliable.leaky_bucket import LeakyBucket
from repro.reliable.operators import Operator, make_operator, operator_kind_of
from repro.reliable.voting import majority_vote


@dataclass
class ExecutionReport:
    """What happened while executing a layer reliably.

    A batched execution is one report whose counters aggregate the
    whole batch; ``per_image`` additionally attributes them, one
    sub-report per input image in batch order.  Each sub-report's
    counters cover exactly that image's share (its ``failed_outputs``
    are rebased to image index 0, so it reads like a single-image
    run).  The report holds no timing: callers that want wall time
    measure the call themselves.
    """

    operations: int = 0
    errors_detected: int = 0
    rollbacks: int = 0
    persistent_failures: int = 0
    operator_kind: str = "plain"
    failed_outputs: list[tuple[int, ...]] = field(default_factory=list)
    per_image: list["ExecutionReport"] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        """Detected errors per executed operation."""
        if self.operations == 0:
            return 0.0
        return self.errors_detected / self.operations


class _ImageSlice:
    """Delta-snapshot one image's share of a batched execution.

    Construct at the top of an engine's per-image loop, call
    :meth:`snapshot` at the bottom: the difference of the running
    counters is that image's :class:`ExecutionReport`, with its
    ``failed_outputs`` rebased to image index 0 so the sub-report is
    indistinguishable from the report of a single-image run.
    """

    def __init__(
        self, report: ExecutionReport, stats: ConvolutionStats
    ) -> None:
        self._report = report
        self._stats = stats
        self._operations = stats.operations
        self._errors = stats.errors_detected
        self._rollbacks = stats.rollbacks
        self._failures = report.persistent_failures
        self._failed = len(report.failed_outputs)

    def snapshot(self) -> ExecutionReport:
        report, stats = self._report, self._stats
        return ExecutionReport(
            operations=stats.operations - self._operations,
            errors_detected=stats.errors_detected - self._errors,
            rollbacks=stats.rollbacks - self._rollbacks,
            persistent_failures=(
                report.persistent_failures - self._failures
            ),
            operator_kind=report.operator_kind,
            failed_outputs=[
                (0,) + tuple(pos[1:])
                for pos in report.failed_outputs[self._failed:]
            ],
        )


#: Accepted ``engine`` values of :class:`ReliableConv2D` (and of
#: :class:`~repro.core.partition.HybridPartition`): the two engines,
#: plus ``"auto"``, the policy that picks between them.
RELIABLE_ENGINES = ("auto", "scalar", "vectorized")


def resolve_engine(engine: str, operator: Operator) -> str:
    """The engine a reliable execution actually runs.

    ``"scalar"`` and ``"vectorized"`` name themselves; ``"auto"``
    resolves to ``"vectorized"`` only when speculation is *exact* --
    every redundant pass provably produces identical words, so
    outputs, reports and abort points match the scalar path bit for
    bit (:func:`repro.reliable.vectorized.speculation_is_exact`) --
    and to ``"scalar"`` otherwise.  The one engine policy behind
    :class:`ReliableConv2D` and the campaign element targets.
    Unknown names raise ``ValueError``.
    """
    if engine not in RELIABLE_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose one of {RELIABLE_ENGINES}"
        )
    if engine != "auto":
        return engine
    from repro.reliable.vectorized import speculation_is_exact

    return "vectorized" if speculation_is_exact(operator) else "scalar"


class ReliableConv2D:
    """Run a :class:`repro.nn.layers.Conv2D` through Algorithm 3.

    Parameters
    ----------
    layer:
        The convolution layer whose weights are used.
    operator:
        A qualified operator instance, or a kind string accepted by
        :func:`repro.reliable.operators.make_operator`.
    bucket_factor, bucket_ceiling:
        Leaky-bucket geometry; one bucket is shared across the layer
        execution *of each image* (the paper's global error counter,
        scoped to one inference), so batched execution aborts exactly
        where per-image execution would.
    on_persistent_failure:
        ``"raise"`` (default) re-raises the abort; ``"mark"`` records
        the failed output position, writes NaN there and continues --
        the graceful-degradation variant the paper mentions for
        spatial redundancy.
    engine:
        Execution strategy.  ``"scalar"`` is the paper-literal
        Algorithm 3 loop (the Table 1 timing-reproduction mode);
        ``"vectorized"`` is the speculate-then-verify engine of
        :mod:`repro.reliable.vectorized` (bitwise-identical results,
        orders of magnitude faster); ``"auto"`` (default) picks
        ``"vectorized"`` exactly when the operator/unit pair makes
        speculation provably bit-exact -- fault-free built-in units
        under the built-in operators -- and ``"scalar"`` otherwise,
        so fault-injection campaigns keep their per-operation fault
        streams unless a caller opts in.
    """

    def __init__(
        self,
        layer: Conv2D,
        operator: Operator | str = "dmr",
        bucket_factor: int = 2,
        bucket_ceiling: int | None = None,
        on_persistent_failure: str = "raise",
        engine: str = "auto",
    ) -> None:
        if on_persistent_failure not in ("raise", "mark"):
            raise ValueError(
                "on_persistent_failure must be 'raise' or 'mark'"
            )
        self.layer = layer
        if isinstance(operator, str):
            self._operator_kind = operator
            self.operator = make_operator(operator)
        else:
            # Normalise through the operator registry so the report's
            # operator_kind is the same canonical kind string whether
            # the caller passed "dmr" or RedundantOperator(...).
            self._operator_kind = operator_kind_of(operator)
            self.operator = operator
        self.bucket_factor = bucket_factor
        self.bucket_ceiling = bucket_ceiling
        self.on_persistent_failure = on_persistent_failure
        resolve_engine(engine, self.operator)  # unknown names raise
        self.engine = engine

    def forward(
        self, x: np.ndarray, filters: list[int] | None = None
    ) -> tuple[np.ndarray, ExecutionReport]:
        """Reliably compute the layer output for a batch.

        Parameters
        ----------
        x:
            Input batch ``(n, c, h, w)``.
        filters:
            Optional subset of output filters to execute reliably;
            the remaining filters are computed natively.  This is the
            hybrid partition hook: the paper's DCNN only needs the
            edge-detecting filter(s) to be dependable.

        Returns
        -------
        (output, report):
            ``output`` matches the layer's native forward shape.
        """
        if self._resolve_engine() == "vectorized":
            from repro.reliable.vectorized import speculative_forward

            return speculative_forward(self, x, filters)
        return self._forward_scalar(x, filters)

    def _resolve_engine(self) -> str:
        """The engine this forward pass actually runs
        (:func:`resolve_engine`)."""
        return resolve_engine(self.engine, self.operator)

    def _prepare(
        self, x: np.ndarray, filters: list[int] | None
    ) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, list[int], np.ndarray,
        ExecutionReport,
    ]:
        """Shared prologue of every engine: patch view, weight matrix,
        native execution of filters outside the reliable partition."""
        layer = self.layer
        patches = layer.input_patches(x)  # (n, oh, ow, c*kh*kw)
        n, out_h, out_w, _ = patches.shape
        wmat = layer.weight.value.reshape(layer.out_channels, -1)
        bias = layer.bias.value
        report = ExecutionReport(operator_kind=self._operator_kind)

        reliable_set = (
            set(range(layer.out_channels))
            if filters is None
            else set(filters)
        )
        out = np.empty(
            (n, layer.out_channels, out_h, out_w), dtype=np.float32
        )
        # Native path for filters outside the reliable partition.
        native_filters = [
            f for f in range(layer.out_channels) if f not in reliable_set
        ]
        if native_filters:
            # repro: allow[REDUCE-ORDER] -- audited: the *native*
            # (unprotected) filter lane, outside the qualified path by
            # definition; per-image batch-vs-scalar parity is pinned
            # by tests/api/test_batch_parity.py and
            # tests/reliable/test_vectorized_parity.py.
            native = patches @ wmat[native_filters].T + bias[native_filters]
            out[:, native_filters] = native.transpose(0, 3, 1, 2)
        return patches, wmat, bias, sorted(reliable_set), out, report

    def _forward_scalar(
        self, x: np.ndarray, filters: list[int] | None = None
    ) -> tuple[np.ndarray, ExecutionReport]:
        """The paper-literal engine: Algorithm 3, one qualified
        operation at a time (``engine="scalar"``)."""
        patches, wmat, bias, sorted_filters, out, report = self._prepare(
            x, filters
        )
        n, out_h, out_w, _ = patches.shape

        stats = ConvolutionStats()
        for img in range(n):
            image_slice = _ImageSlice(report, stats)
            # One bucket per image: the error budget is an attribute
            # of one inference, so a batched execution aborts exactly
            # when the same image would abort on its own -- the
            # batched hybrid path's parity contract depends on this.
            bucket = LeakyBucket(
                factor=self.bucket_factor, ceiling=self.bucket_ceiling
            )
            for f in sorted_filters:
                weights = wmat[f]
                b = float(bias[f])
                for i in range(out_h):
                    for j in range(out_w):
                        try:
                            result = reliable_convolution(
                                patches[img, i, j],
                                weights,
                                b,
                                self.operator,
                                bucket=bucket,
                                stats=stats,
                            )
                            out[img, f, i, j] = result.value
                        except PersistentFailureError:
                            report.persistent_failures += 1
                            if self.on_persistent_failure == "raise":
                                self._fill_report(report, stats)
                                raise
                            report.failed_outputs.append(
                                (img, f, i, j)
                            )
                            out[img, f, i, j] = np.nan
                            bucket.reset()
            report.per_image.append(image_slice.snapshot())
        self._fill_report(report, stats)
        return out, report

    def _fill_report(
        self, report: ExecutionReport, stats: ConvolutionStats
    ) -> None:
        report.operations = stats.operations
        report.errors_detected = stats.errors_detected
        report.rollbacks = stats.rollbacks


def redundant_layer_forward(
    layer,
    x: np.ndarray,
    copies: int = 2,
    max_rollbacks: int = 1,
) -> tuple[np.ndarray, ExecutionReport]:
    """Layer-granularity temporal redundancy with rollback.

    Runs ``layer.forward`` ``copies`` times and compares:

    * ``copies == 2`` (DMR): mismatch triggers a rollback -- both
      executions repeat, up to ``max_rollbacks`` times, after which
      :class:`PersistentFailureError` is raised.
    * ``copies >= 3`` (TMR): element-wise majority voting masks
      disagreement; an element with no majority counts as an error
      and triggers rollback like DMR.

    Comparison and voting run on storage words for floating outputs
    (:mod:`repro.reliable.bits` semantics): two copies that both
    legitimately compute NaN agree instead of rolling back forever,
    and a sign flip on a zero is detected.

    Works on any object with a ``forward(x)`` method (single layers or
    whole :class:`~repro.nn.network.Sequential` models).
    """
    if copies < 2:
        raise ValueError("redundancy needs at least 2 copies")
    report = ExecutionReport(
        operator_kind=f"layer-{'dmr' if copies == 2 else 'tmr'}"
    )
    attempts = 0
    while True:
        outputs = [layer.forward(x) for _ in range(copies)]
        attempts += 1
        report.operations += copies
        if copies == 2:
            # repro: allow[FLOAT-APPROX] -- operands are int64
            # storage-word views (_comparable_words), so array_equal
            # here *is* the word comparator in array form: identical
            # NaN payloads agree, +0.0/-0.0 disagree.
            agreed = bool(np.array_equal(
                _comparable_words(outputs[0]),
                _comparable_words(outputs[1]),
            ))
            if agreed:
                result = outputs[0]
                break
        else:
            stacked = np.stack(outputs)
            result, all_voted = _elementwise_vote(stacked)
            if all_voted:
                break
        report.errors_detected += 1
        if attempts > max_rollbacks:
            report.persistent_failures += 1
            raise PersistentFailureError(
                "layer-level redundant execution kept disagreeing",
                errors_detected=report.errors_detected,
            )
        report.rollbacks += 1
    return result, report


def _comparable_words(array: np.ndarray) -> np.ndarray:
    """An integer word view of floating arrays (identity otherwise).

    Layer-level comparison/voting must use the same word semantics as
    the operator qualifiers: equal NaN words agree, ``+0.0`` and
    ``-0.0`` disagree.  Non-float outputs compare as themselves.
    """
    array = np.asarray(array)
    if array.dtype.kind == "f":
        return np.ascontiguousarray(array).view(
            np.dtype(f"i{array.dtype.itemsize}")
        )
    return array


def _elementwise_vote(stacked: np.ndarray) -> tuple[np.ndarray, bool]:
    """Majority vote across axis 0; returns (value, unanimous_majority).

    Both paths vote on storage words: the fast path counts word
    agreement with the first copy, the slow path defers to
    :func:`~repro.reliable.voting.majority_vote` (itself word-based),
    so the elected value for an element never depends on which path
    its neighbours forced.
    """
    copies = stacked.shape[0]
    first = stacked[0]
    words = _comparable_words(stacked)
    agree_with_first = (words == words[0][None]).sum(axis=0)
    majority = copies // 2 + 1
    # Fast path: the first copy already holds a majority everywhere.
    if (agree_with_first >= majority).all():
        return first.copy(), True
    # Slow path: vote element by element.
    flat = stacked.reshape(copies, -1)
    out = np.empty(flat.shape[1], dtype=stacked.dtype)
    ok = True
    for idx in range(flat.shape[1]):
        value, agreement = majority_vote(list(flat[:, idx]))
        out[idx] = value
        if agreement < majority:
            ok = False
    return out.reshape(first.shape), ok
