"""REDUCE-ORDER / REDUCE-AXES: reduction-order hazards in parity code.

The PR 4 incident: ``correlate2d`` via ``einsum`` let BLAS/kernel
selection pick a different summation order for batched vs per-image
shapes, silently breaking bitwise batch-vs-scalar parity for the
grayscale stage.  The fix was tap-sequential ufunc accumulation --
an explicit, shape-independent summation tree.  In modules that
promise bitwise parity, every BLAS-shaped contraction is therefore
either rewritten that way or individually audited (allow pragma
naming the parity test that covers it).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

CONTRACTION_CALLS = {
    "numpy.einsum",
    "numpy.tensordot",
    "numpy.dot",
    "numpy.vdot",
    "numpy.inner",
    "numpy.matmul",
    "numpy.linalg.multi_dot",
}

#: method names that dispatch to the same BLAS machinery
CONTRACTION_METHODS = {"dot", "matmul"}

REDUCTION_CALLS = {"numpy.sum", "numpy.nansum", "numpy.prod", "numpy.nanprod"}
REDUCTION_METHODS = {"sum", "prod"}


@register
class ContractionOrderRule(Rule):
    id = "REDUCE-ORDER"
    title = "BLAS-shaped contraction in bitwise-parity code"
    severity = Severity.ERROR
    scope = "parity"
    rationale = (
        "einsum/tensordot/@/dot let the backend choose the summation "
        "order per shape, so batched and scalar runs of the same math can "
        "differ in the last ulp -- the PR 4 batch-parity break.  Parity "
        "modules accumulate tap-sequentially, or carry an audited allow "
        "pragma naming the parity test that pins the call site."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield self.finding(
                    ctx,
                    node,
                    "@ (matmul) delegates summation order to the backend; "
                    "shape-dependent kernels break batch-vs-scalar bitwise "
                    "parity",
                )
            elif isinstance(node, ast.Call):
                qualname = ctx.call_qualname(node) or ""
                if qualname in CONTRACTION_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"{qualname} picks a shape-dependent reduction "
                        "order; use tap-sequential accumulation in parity "
                        "code",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in CONTRACTION_METHODS
                ):
                    # ``x.dot(y)``: same BLAS dispatch, method form.
                    yield self.finding(
                        ctx,
                        node,
                        f".{node.func.attr}() dispatches to BLAS with a "
                        "shape-dependent reduction order",
                    )


@register
class MultiAxisReductionRule(Rule):
    id = "REDUCE-AXES"
    title = "multi-axis sum/prod in bitwise-parity code"
    severity = Severity.ERROR
    scope = "parity"
    rationale = (
        "sum(axis=(i, j)) collapses several axes in one pairwise tree "
        "whose shape numpy may re-block per input size; parity code "
        "reduces one axis at a time in a fixed order so the summation "
        "tree is part of the contract."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            qualname = ctx.call_qualname(node) or ""
            is_reduction = qualname in REDUCTION_CALLS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in REDUCTION_METHODS
            )
            if not is_reduction:
                continue
            for keyword in node.keywords:
                if keyword.arg == "axis" and isinstance(
                    keyword.value, ast.Tuple
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "multi-axis reduction: numpy may re-block the "
                        "summation tree per input shape; reduce one axis "
                        "at a time",
                    )
