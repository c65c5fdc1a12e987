"""Whole-program project model: one summary per file.

The per-file rules see one :class:`~repro.lint.context.FileContext` at
a time, which is exactly why a nondeterminism source in an unscoped
helper *called from* a parity path escapes them.  The project pass
closes that hole: every lintable file is distilled into a small,
JSON-serializable **summary** -- its defs, the calls each def makes,
the ambient/RNG sources it contains, its lock acquisitions, class
contracts (``_guarded_by`` / ``_requires_lock``), registry
registrations, pragma citations and referenced names -- and the
summaries feed the call graph (:mod:`repro.lint.callgraph`) and the
inter-procedural rules (:mod:`repro.lint.rules.interproc`).

A summary is built from the same context the per-file rules ran on
(:func:`summarize`), so each file is read, parsed and tokenized once
per run; the model keeps the summary, the file's
:class:`~repro.lint.pragmas.Suppressions` and its lines, and lets the
tree go.  Nothing is cached between runs: a summary always comes from
the linter that reports on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from repro.lint.context import FileContext
from repro.lint.pragmas import Suppressions
from repro.lint.rules.ambient import CLOCK_CALLS, ENV_CALLS, _is_set_expr
from repro.lint.rules.randomness import NUMPY_LEGACY, STDLIB_RANDOM

#: Pseudo-function holding module-level statements.  It participates in
#: the call graph (registrations happen there) but is never a taint
#: anchor: module-level code runs at import, not on a verdict path.
MODULE_BODY = "<module>"


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.  ``src/`` is the
    import root (the repo runs with ``PYTHONPATH=src``); everything
    else (``tests/``, ``benchmarks/``) is importable from the repo
    root as-is."""
    parts = list(PurePosixPath(rel_path).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _literal_strs(node: ast.AST) -> list[str] | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
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


def _str_keyed_dict(node: ast.AST) -> dict[str, list[str]] | None:
    """``{"a": ("x", "y"), ...}`` literals -> plain dict; None when the
    literal is not entirely static."""
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, list[str]] = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        values = _literal_strs(value)
        if values is None:
            continue
        out[key.value] = values
    return out


def _class_body_dict(class_node: ast.ClassDef, name: str) -> dict | None:
    """A ``name = {...}`` assignment in the class body, parsed as a
    static str->strs dict."""
    for stmt in class_node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return _str_keyed_dict(value)
    return None


def _is_registry_base(dotted: str | None) -> str | None:
    """Registries are module-level ALL-CAPS names by repo convention
    (``CAMPAIGN_TARGETS``).  Returns the registry id (the last path
    component) or None."""
    if not dotted:
        return None
    last = dotted.rpartition(".")[2]
    if last.isupper() and len(last) >= 2:
        return last
    return None


class _FunctionWalker(ast.NodeVisitor):
    """Collects one def's calls, taint sources and lock events while
    tracking the lexical ``with self.<lock>`` stack.  Nested defs are
    attributed to the enclosing def, with an empty held-lock stack
    (the closure runs later, when the lock may not be held) -- the
    same semantics as the lexical LOCK-GUARD rule."""

    def __init__(
        self,
        ctx: FileContext,
        self_name: str | None,
        initial_held: list[str],
        module: str,
    ) -> None:
        self.ctx = ctx
        self.self_name = self_name
        self.module = module
        self.held: list[str] = list(initial_held)
        self.depth = 0
        self.calls: list[dict] = []
        self.sources: list[dict] = []
        self.acquisitions: list[dict] = []
        self.registrations: list[dict] = []

    # -- helpers ---------------------------------------------------------
    def _self_attr(self, node: ast.AST) -> str | None:
        if (
            self.self_name is not None
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        ):
            return node.attr
        return None

    def _lock_id(self, node: ast.AST) -> str | None:
        """Identity of a ``with`` context expression that looks like a
        lock acquisition: ``self.<attr>`` (class-relative, qualified
        later by the graph) or a module-level dotted name."""
        attr = self._self_attr(node)
        if attr is not None:
            return f"self.{attr}"
        if isinstance(node, ast.Name):
            resolved = self.ctx.imports.get(node.id)
            if resolved is not None:
                return resolved
            return f"{self.module}.{node.id}"
        return None

    def _record_source(self, rule: str, what: str, node: ast.AST) -> None:
        self.sources.append(
            {"rule": rule, "what": what, "line": node.lineno}
        )

    # -- lock tracking ---------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        if not self.depth:
            for item in node.items:
                lock = self._lock_id(item.context_expr)
                if lock is not None:
                    self.acquisitions.append(
                        {
                            "lock": lock,
                            "held": list(self.held),
                            "line": item.context_expr.lineno,
                        }
                    )
                    acquired.append(lock)
        self.held.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self.held.pop()

    def _enter_nested(self, node: ast.AST) -> None:
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

    # -- set iteration (taint source) ------------------------------------
    def _check_set_iteration(self, node: ast.AST, iter_expr: ast.AST) -> None:
        if _is_set_expr(iter_expr, self.ctx):
            self._record_source("SET-ITER", "set iteration", node)

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node, node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        self._check_set_iteration(node, node.generators[0].iter)
        self.generic_visit(node)

    visit_ListComp = visit_GeneratorExp = visit_DictComp = _visit_comp
    visit_SetComp = _visit_comp

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        entry = {"line": node.lineno, "held": list(self.held)}
        func = node.func
        handled = False

        # sum(<set>) is a set-order accumulation.
        if (
            isinstance(func, ast.Name)
            and func.id == "sum"
            and node.args
            and _is_set_expr(node.args[0], self.ctx)
        ):
            self._record_source("SET-ITER", "sum over a set", node)

        attr = self._self_attr(func)
        if attr is not None:
            entry.update(kind="self", method=attr)
            handled = True
        elif isinstance(func, ast.Attribute):
            inner = self._self_attr(func.value)
            if inner is not None:
                # self.<attr>.<method>() -- resolved via the class's
                # inferred attribute types.
                entry.update(kind="selfattr", attr=inner, method=func.attr)
                handled = True
            elif func.attr in ("register", "get"):
                registry = _is_registry_base(self.ctx.qualname(func.value))
                if registry is not None:
                    if func.attr == "get":
                        entry.update(kind="registry", registry=registry)
                        handled = True
                    else:
                        self._record_registration(node, registry)
        if not handled:
            dotted = self.ctx.qualname(func)
            if dotted is not None:
                entry.update(kind="dotted", target=dotted)
                self._check_source_call(dotted, node)
                handled = True
        if handled:
            self.calls.append(entry)
        if entry.get("target") in ENV_CALLS:
            # The call is the read: skip the ``os.environ`` inside the
            # callee, one source per read as AMBIENT-ENV reports it.
            for child in (*node.args, *node.keywords):
                self.visit(child)
        else:
            self.generic_visit(node)

    def _record_registration(self, node: ast.Call, registry: str) -> None:
        """``REG.register("key", target)`` -- the call form.  The
        decorator form is handled by the module walker."""
        key = None
        if node.args and isinstance(node.args[0], ast.Constant):
            key = node.args[0].value
        target = None
        if len(node.args) > 1:
            target = self.ctx.qualname(node.args[1])
        if target is not None:
            self.registrations.append(
                {
                    "registry": registry,
                    "key": key if isinstance(key, str) else None,
                    "target": target,
                    "line": node.lineno,
                }
            )

    # -- ambient / RNG sources -------------------------------------------
    def _check_source_call(self, dotted: str, node: ast.Call) -> None:
        if dotted in CLOCK_CALLS:
            self._record_source("AMBIENT-TIME", dotted, node)
        elif dotted in ENV_CALLS:
            self._record_source("AMBIENT-ENV", dotted, node)
        elif dotted == "id" and "id" not in self.ctx.imports:
            self._record_source("AMBIENT-ID", "id()", node)
        elif (
            dotted.startswith("numpy.random.")
            and dotted.rpartition(".")[2] in NUMPY_LEGACY
        ):
            self._record_source("RNG-LEGACY", dotted, node)
        elif (
            dotted.startswith("random.")
            and dotted.rpartition(".")[2] in STDLIB_RANDOM
            and self.ctx.imports.get("random") == "random"
        ):
            self._record_source("RNG-STDLIB", dotted, node)
        elif (
            dotted == "numpy.random.default_rng"
            and not node.args
            and not node.keywords
        ):
            # Unseeded = fresh OS entropy; a *literal* seed is
            # deterministic and not a taint source (stream-correlation
            # policy stays with the lexical RNG-SEED rule).
            self._record_source("RNG-SEED", "default_rng()", node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.ctx.qualname(node.value) == "os.environ":
            self._record_source("AMBIENT-ENV", "os.environ", node)
            self.visit(node.slice)
        else:
            self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.ctx.qualname(node) == "os.environ":
            self._record_source("AMBIENT-ENV", "os.environ", node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # A bare ``environ`` imported with ``from os import environ``.
        if self.ctx.qualname(node) == "os.environ":
            self._record_source("AMBIENT-ENV", "os.environ", node)


def _walk_def(
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    cls: str | None,
    ctx: FileContext,
    initial_held: list[str],
    module: str,
) -> dict:
    args = method.args.posonlyargs + method.args.args
    self_name = args[0].arg if (cls is not None and args) else None
    walker = _FunctionWalker(ctx, self_name, initial_held, module)
    for stmt in method.body:
        walker.visit(stmt)
    return {
        "qualname": qualname,
        "name": method.name,
        "cls": cls,
        "line": method.lineno,
        "public": not method.name.startswith("_"),
        "calls": walker.calls,
        "sources": walker.sources,
        "acquisitions": walker.acquisitions,
    }, walker.registrations


def _decorator_registrations(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
    qualname: str,
    ctx: FileContext,
) -> list[dict]:
    """``@REG.register("key")`` decorators on a def or class."""
    out = []
    for decorator in node.decorator_list:
        if not (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr == "register"
        ):
            continue
        registry = _is_registry_base(ctx.qualname(decorator.func.value))
        if registry is None:
            continue
        key = None
        if decorator.args and isinstance(decorator.args[0], ast.Constant):
            value = decorator.args[0].value
            key = value if isinstance(value, str) else None
        out.append(
            {
                "registry": registry,
                "key": key,
                "target": qualname,
                "line": decorator.lineno,
            }
        )
    return out


def _attr_types(class_node: ast.ClassDef, ctx: FileContext) -> dict[str, str]:
    """Best-effort instance attribute types: ``self.x = Cls(...)``
    assignments anywhere in the class's methods (first wins)."""
    types: dict[str, str] = {}
    for method in class_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = method.args.posonlyargs + method.args.args
        if not args:
            continue
        self_name = args[0].arg
        for node in ast.walk(method):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
            ):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            dotted = ctx.qualname(node.value.func)
            if dotted is not None and target.attr not in types:
                types[target.attr] = dotted
    return types


def summarize(ctx: FileContext) -> dict:
    """One file's project summary, from the context its per-file rules
    ran on."""
    module = module_name_for(ctx.rel_path)
    functions: list[dict] = []
    classes: list[dict] = []
    registrations: list[dict] = []

    def add_def(node, qualname, cls, initial_held):
        summary, regs = _walk_def(
            node, qualname, cls, ctx, initial_held, module
        )
        functions.append(summary)
        registrations.extend(regs)
        registrations.extend(_decorator_registrations(node, qualname, ctx))

    module_body: list[ast.stmt] = []
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_def(stmt, f"{module}.{stmt.name}", None, [])
        elif isinstance(stmt, ast.ClassDef):
            guarded = _class_body_dict(stmt, "_guarded_by") or {}
            requires = _class_body_dict(stmt, "_requires_lock") or {}
            classes.append(
                {
                    "name": stmt.name,
                    "line": stmt.lineno,
                    "bases": sorted(
                        filter(None, (ctx.qualname(b) for b in stmt.bases))
                    ),
                    "guarded_by": {
                        attr: lock
                        for lock, attrs in guarded.items()
                        for attr in attrs
                    },
                    "requires_lock": requires,
                    "attr_types": _attr_types(stmt, ctx),
                }
            )
            registrations.extend(
                _decorator_registrations(
                    stmt, f"{module}.{stmt.name}", ctx
                )
            )
            for member in stmt.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    held = [
                        f"self.{lock}"
                        for lock in requires.get(member.name, [])
                    ]
                    add_def(
                        member,
                        f"{module}.{stmt.name}.{member.name}",
                        stmt.name,
                        held,
                    )
        else:
            module_body.append(stmt)

    if module_body:
        pseudo = ast.FunctionDef(
            name=MODULE_BODY,
            args=ast.arguments(
                posonlyargs=[], args=[], kwonlyargs=[],
                kw_defaults=[], defaults=[],
            ),
            body=module_body,
            decorator_list=[],
            lineno=1,
            col_offset=0,
        )
        summary, regs = _walk_def(
            pseudo, f"{module}.{MODULE_BODY}", None, ctx, [], module
        )
        functions.append(summary)
        registrations.extend(regs)

    referenced: set[str] = set()
    for node in ctx.nodes:
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)

    return {
        "module": module,
        "imports": ctx.imports,
        "functions": functions,
        "classes": classes,
        "registrations": registrations,
        "referenced_names": sorted(referenced),
        "pragmas": ctx.suppressions.citations,
    }


@dataclass
class ProjectModel:
    """All summaries for one lint run, with each file's suppressions
    and lines for the pragma checks and snippets of project findings."""

    root: Path
    summaries: dict[str, dict] = field(default_factory=dict)  #: rel -> summary
    suppressions: dict[str, Suppressions] = field(default_factory=dict)
    lines: dict[str, list[str]] = field(default_factory=dict)

    def add(self, ctx: FileContext) -> None:
        """Summarize one file; the model keeps no reference to its
        tree."""
        self.summaries[ctx.rel_path] = summarize(ctx)
        self.suppressions[ctx.rel_path] = ctx.suppressions
        self.lines[ctx.rel_path] = ctx.lines

    def suppressions_for(self, rel_path: str) -> Suppressions:
        return self.suppressions.get(rel_path, Suppressions())

    def line(self, rel_path: str, lineno: int) -> str:
        lines = self.lines.get(rel_path, [])
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    def iter_functions(self):
        """(rel_path, summary, function) triples in deterministic
        (path, definition) order."""
        for rel_path in sorted(self.summaries):
            summary = self.summaries[rel_path]
            for function in summary["functions"]:
                yield rel_path, summary, function

    @property
    def function_count(self) -> int:
        return sum(
            len(s["functions"]) for s in self.summaries.values()
        )


def build_project(files: list[Path], config) -> ProjectModel:
    """Summarize ``files`` into a :class:`ProjectModel` without running
    the per-file rules.  Files that fail to decode or parse are skipped
    here -- the per-file pass reports them as PARSE-ERROR."""
    from repro.lint.engine import _rel_path  # shared path normalizer

    model = ProjectModel(root=config.root)
    for path in files:
        try:
            model.add(FileContext.read(path, _rel_path(path, config.root)))
        except SyntaxError:
            continue
    return model
