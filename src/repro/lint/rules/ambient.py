"""Ambient nondeterminism in compute paths: AMBIENT-TIME / AMBIENT-ENV
/ AMBIENT-ID / SET-ITER.

Compute modules produce verdicts that must replay bitwise (campaign
resume, request-log replay, differential fuzzing).  Anything that
reads ambient process state -- the clock, the environment, CPython
object addresses, hash-seeded set order -- makes a replay diverge in
ways no seed controls.  Orchestration layers (serving, campaigns,
workflows, benchmarks) legitimately read clocks and are outside this
scope; the few compute call sites that only *report* elapsed time
carry allow pragmas saying so.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

ENV_CALLS = {"os.getenv", "os.environ.get"}


def _is_sorted_wrapped(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    """True when the set expression is immediately consumed by
    ``sorted(...)`` -- the sanctioned way to iterate a set."""
    parent = parents.get(id(node))
    if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
        return parent.func.id == "sorted"
    return False


def _parent_map(nodes: list[ast.AST]) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for parent in nodes:
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent
    return parents


def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        qualname = ctx.call_qualname(node)
        return qualname in {"set", "frozenset"}
    return False


@register
class WallClockRule(Rule):
    id = "AMBIENT-TIME"
    title = "wall-clock read in a compute path"
    severity = Severity.ERROR
    scope = "compute"
    rationale = (
        "A clock read in compute code either feeds the result (replay "
        "diverges) or is profiling that belongs in the orchestration "
        "layer.  Report-metadata timing that provably never feeds a "
        "verdict carries an allow pragma saying exactly that."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            qualname = ctx.call_qualname(node) or ""
            if qualname in CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{qualname}() reads ambient time inside a compute "
                    "path; deterministic replay cannot reproduce it",
                )


@register
class EnvironRule(Rule):
    id = "AMBIENT-ENV"
    title = "environment read in a compute path"
    severity = Severity.ERROR
    scope = "compute"
    rationale = (
        "os.environ consulted inside compute code makes results depend "
        "on launcher state that no artifact records.  Configuration "
        "belongs in explicit config objects (repro.api.config) resolved "
        "at the boundary."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # One finding per read: ``os.environ.get(...)`` and
        # ``os.environ[...]`` are reported at the call or subscript, so
        # the ``os.environ`` inside them is skipped.  (``ctx.nodes`` is
        # in breadth-first order: the outer node comes first.)
        covered: set[int] = set()
        for node in ctx.nodes:
            qualname = None
            inner = None
            if isinstance(node, ast.Call):
                qualname = ctx.call_qualname(node)
                if qualname in ENV_CALLS:
                    inner = getattr(node.func, "value", None)
                else:
                    qualname = None
            elif isinstance(node, ast.Subscript):
                if ctx.qualname(node.value) == "os.environ":
                    qualname, inner = "os.environ", node.value
            elif (
                # ``os.environ``, or a bare ``environ`` imported with
                # ``from os import environ``.
                isinstance(node, (ast.Attribute, ast.Name))
                and id(node) not in covered
                and ctx.qualname(node) == "os.environ"
            ):
                qualname = "os.environ"
            if inner is not None:
                covered.add(id(inner))
            if qualname:
                yield self.finding(
                    ctx,
                    node,
                    f"{qualname} read inside a compute path; route "
                    "configuration through explicit config objects",
                )


@register
class IdKeyedRule(Rule):
    id = "AMBIENT-ID"
    title = "id()-keyed logic in a compute path"
    severity = Severity.ERROR
    scope = "compute"
    rationale = (
        "id() exposes CPython heap addresses: dicts keyed by it iterate "
        "in allocation order, logs built from it never replay, and "
        "state maps silently alias when an object is freed and its "
        "address reused.  Key by explicit slot/index instead (the "
        "nn.optim state maps were the in-tree instance)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and "id" not in ctx.imports
            ):
                yield self.finding(
                    ctx,
                    node,
                    "id() leaks heap addresses into compute state; key by "
                    "an explicit slot or index",
                )


@register
class SetIterationRule(Rule):
    id = "SET-ITER"
    title = "direct set iteration feeding computation"
    severity = Severity.ERROR
    scope = "compute"
    rationale = (
        "Set iteration order follows hash values -- for str keys it "
        "changes per process (PYTHONHASHSEED), and float accumulation "
        "over it changes with order.  Wrap the set in sorted() before "
        "iterating or accumulating."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        parents = _parent_map(ctx.nodes)
        for node in ctx.nodes:
            iter_expr = None
            if isinstance(node, ast.For):
                iter_expr = node.iter
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                iter_expr = node.generators[0].iter
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
            ):
                iter_expr = node.args[0]
            if iter_expr is None or not _is_set_expr(iter_expr, ctx):
                continue
            if _is_sorted_wrapped(iter_expr, parents):
                continue
            yield self.finding(
                ctx,
                node,
                "iterating a set in hash order inside a compute path; "
                "wrap it in sorted() to pin the order",
            )
