"""LOCK-GUARD: machine-checked lock discipline for shared state.

Classes that share mutable attributes across threads declare the
contract as data, in the class body::

    class PipelineServer:
        #: attributes only touched under the named lock
        _guarded_by = {"_state_lock": ("_accepting", "_draining", "_thread")}

The rule then enforces it lexically: every load/store of a guarded
attribute through ``self`` must sit inside ``with self._state_lock:``.
``__init__``/``__del__`` are exempt (the object is not yet / no longer
shared).  Deliberate unlocked accesses -- optimistic gate reads,
single-writer flags -- are exactly the places that deserve a written
justification, which is what the allow pragma forces.

This lands ahead of the multi-worker serving tier so the serving
layer's thread-safety contract is checked before it multiplies.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

DECLARATION = "_guarded_by"
REQUIRES = "_requires_lock"
EXEMPT_METHODS = {"__init__", "__del__"}


def _literal_str_seq(node: ast.AST) -> list[str] | None:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out = []
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            out.append(element.value)
        return out
    return None


def _guarded_map(class_node: ast.ClassDef) -> dict[str, str]:
    """attr name -> lock attr name, from the ``_guarded_by`` class
    attribute (a dict literal of str -> tuple/list of str)."""
    guarded: dict[str, str] = {}
    for stmt in class_node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == DECLARATION for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            continue
        for key, val in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            attrs = _literal_str_seq(val)
            if attrs is None:
                continue
            for attr in attrs:
                guarded[attr] = key.value
    return guarded


def _requires_map(class_node: ast.ClassDef) -> dict[str, list[str]]:
    """method name -> lock attrs, from the ``_requires_lock`` class
    attribute.  An annotated helper is checked *as if* its declared
    locks were held; the project pass (LOCK-CALL) then verifies every
    call site actually holds them."""
    requires: dict[str, list[str]] = {}
    for stmt in class_node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == REQUIRES for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            continue
        for key, val in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            locks = _literal_str_seq(val)
            if locks is not None:
                requires[key.value] = locks
    return requires


def _self_attr(node: ast.AST, self_name: str) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


class _MethodChecker(ast.NodeVisitor):
    """Walks one method body tracking the lexical ``with self.<lock>``
    stack.  Accesses inside nested functions count as *outside* the
    lock: the closure runs later, when the lock may not be held."""

    def __init__(self, rule, ctx, guarded, self_name):
        self.rule = rule
        self.ctx = ctx
        self.guarded = guarded
        self.self_name = self_name
        self.held: list[str] = []
        self.depth = 0  # nested function depth
        self.findings: list[Finding] = []

    # -- lock tracking ---------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired = []
        for item in node.items:
            attr = _self_attr(item.context_expr, self.self_name)
            if attr is not None:
                acquired.append(attr)
        if self.depth:
            acquired = []  # a with inside a nested def guards that def only
        self.held.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self.held.pop()

    def _enter_nested(self, node) -> None:
        self.depth += 1
        held, self.held = self.held, []
        self.generic_visit(node)
        self.held = held
        self.depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter_nested(node)

    # -- accesses --------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node, self.self_name)
        if attr is not None and attr in self.guarded:
            lock = self.guarded[attr]
            if lock not in self.held:
                self.findings.append(
                    self.rule.finding(
                        self.ctx,
                        node,
                        f"self.{attr} is declared lock-guarded but accessed "
                        f"outside `with self.{lock}`",
                    )
                )
        self.generic_visit(node)


@register
class LockDisciplineRule(Rule):
    id = "LOCK-GUARD"
    title = "lock-guarded attribute accessed outside its lock"
    severity = Severity.ERROR
    scope = "all"
    rationale = (
        "Shared mutable state with an implicit locking convention is how "
        "thread-safety contracts rot.  _guarded_by declares the contract "
        "as data; every unlocked access is then either a bug or a "
        "deliberate racy read that must carry its justification inline."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for class_node in ctx.nodes:
            if not isinstance(class_node, ast.ClassDef):
                continue
            guarded = _guarded_map(class_node)
            if not guarded:
                continue
            requires = _requires_map(class_node)
            for method in class_node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name in EXEMPT_METHODS:
                    continue
                args = method.args.posonlyargs + method.args.args
                if not args:
                    continue  # staticmethod-style: no self to track
                checker = _MethodChecker(self, ctx, guarded, args[0].arg)
                checker.held.extend(requires.get(method.name, []))
                for stmt in method.body:
                    checker.visit(stmt)
                yield from checker.findings
