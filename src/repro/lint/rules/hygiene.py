"""Hygiene rules: MUT-DEFAULT / LRU-METHOD.

Not determinism hazards per se, but the two Python footguns that most
often *become* shared-state bugs in a long-lived serving process: a
mutable default argument is one hidden module-level object shared by
every call, and ``lru_cache`` on an instance method keeps every
instance (and its numpy state) alive in a process-global cache.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter",
                 "collections.defaultdict", "collections.Counter",
                 "collections.deque", "deque"}

CACHE_DECORATORS = {"functools.lru_cache", "functools.cache"}


def _is_mutable_literal(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        return (ctx.call_qualname(node) or "") in MUTABLE_CALLS
    return False


@register
class MutableDefaultRule(Rule):
    id = "MUT-DEFAULT"
    title = "mutable default argument"
    severity = Severity.WARNING
    scope = "all"
    rationale = (
        "A mutable default is a single module-level object shared by "
        "every call -- cross-request state leakage the moment the "
        "function runs inside the server.  Default to None and "
        "materialise inside the body."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default, ctx):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument is shared across every "
                        "call; default to None and build inside the body",
                    )


@register
class LruCacheMethodRule(Rule):
    id = "LRU-METHOD"
    title = "lru_cache on an instance method"
    severity = Severity.WARNING
    scope = "all"
    rationale = (
        "functools.lru_cache on a method keys on self: every instance "
        "is retained by a process-global cache (leak) and cache hits "
        "alias state across logically independent pipelines.  Cache "
        "module-level pure functions, or use a per-instance dict."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for class_node in ctx.nodes:
            if not isinstance(class_node, ast.ClassDef):
                continue
            for method in class_node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                names = {
                    ctx.qualname(
                        d.func if isinstance(d, ast.Call) else d
                    )
                    for d in method.decorator_list
                }
                if names & {"staticmethod", "classmethod"}:
                    continue
                cached = names & CACHE_DECORATORS
                if cached:
                    yield self.finding(
                        ctx,
                        method,
                        f"{sorted(cached)[0]} on an instance method retains "
                        "every instance in a global cache; cache a "
                        "module-level function instead",
                    )
