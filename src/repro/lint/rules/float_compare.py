"""FLOAT-EQ / FLOAT-APPROX: value-level float comparison in parity code.

The PR 3 incident: qualifier agreement used float ``==``, so
``NaN == NaN`` being False sent identical true-NaN results into an
infinite rollback loop, and ``+0.0 == -0.0`` being True silently
qualified sign-bit upsets on zero results (golden pin moved 198 -> 202
when fixed).  In parity-critical modules the only sanctioned
comparison is the IEEE-754 storage word
(:mod:`repro.reliable.bits`: ``same_word`` / ``word_view``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Value-level comparison helpers that have no place in bitwise code:
#: tolerance comparators hide single-bit upsets by design, and
#: ``array_equal`` on floats inherits ``==``'s NaN/signed-zero holes.
APPROX_CALLS = {
    "numpy.array_equal",
    "numpy.array_equiv",
    "numpy.allclose",
    "numpy.isclose",
    "numpy.testing.assert_allclose",
    "numpy.testing.assert_array_almost_equal",
    "math.isclose",
}

FLOAT_CONSTANTS = {
    "numpy.nan",
    "numpy.NaN",
    "numpy.NAN",
    "numpy.inf",
    "numpy.Inf",
    "numpy.NINF",
    "numpy.PINF",
    "numpy.e",
    "numpy.pi",
    "math.nan",
    "math.inf",
    "math.e",
    "math.pi",
    "math.tau",
}

FLOAT_CALLS = {"float", "numpy.float64", "numpy.float32", "numpy.float16"}


def _float_like(node: ast.AST, ctx: FileContext) -> bool:
    """Conservative "this operand is a float value" detector.

    Only shapes that are unambiguously floating-point count -- float
    literals, ``float()``/``np.float64()`` conversions, float
    constants, and arithmetic over those.  Anything fuzzier (plain
    names, attribute loads) stays unflagged: a determinism gate earns
    its keep by being quiet on clean code.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _float_like(node.operand, ctx)
    if isinstance(node, ast.BinOp):
        return _float_like(node.left, ctx) or _float_like(node.right, ctx)
    if isinstance(node, ast.Call):
        return (ctx.call_qualname(node) or "") in FLOAT_CALLS
    if isinstance(node, (ast.Attribute, ast.Name)):
        return (ctx.qualname(node) or "") in FLOAT_CONSTANTS
    return False


@register
class FloatEqualityRule(Rule):
    id = "FLOAT-EQ"
    title = "float == / != in parity-critical code"
    severity = Severity.ERROR
    scope = "parity"
    rationale = (
        "Float == treats +0.0 as -0.0 (missed sign-bit upset) and NaN as "
        "unequal to itself (infinite rollback on true-NaN results) -- the "
        "PR 3 incident.  Compare storage words via repro.reliable.bits "
        "(same_word / word_view) instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_float_like(operand, ctx) for operand in operands):
                yield self.finding(
                    ctx,
                    node,
                    "float ==/!= compares values, not storage words; use "
                    "repro.reliable.bits.same_word/word_view",
                )


@register
class FloatApproxRule(Rule):
    id = "FLOAT-APPROX"
    title = "tolerance/value comparator call in parity-critical code"
    severity = Severity.ERROR
    scope = "parity"
    rationale = (
        "allclose/isclose/array_equal compare numeric values: tolerance "
        "hides single-bit upsets and array_equal inherits ==' NaN and "
        "signed-zero holes.  Bitwise contracts compare word views.  "
        "Word-dtype call sites carry an allow pragma stating the operands "
        "are integer storage words."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            qualname = ctx.call_qualname(node)
            if qualname in APPROX_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{qualname} is a value-level comparison; parity code "
                    "compares storage words (repro.reliable.bits)",
                )
