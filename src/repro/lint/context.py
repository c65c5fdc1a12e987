"""Per-file analysis context: parsed tree, import aliases, source.

Rules see one :class:`FileContext` per file.  The context's job is to
answer the two questions every AST rule asks:

* *what does this dotted expression actually refer to?* --
  :meth:`FileContext.qualname` resolves local aliases through the
  file's imports, so ``rng = npr.default_rng()`` under
  ``import numpy.random as npr`` and ``from numpy.random import
  default_rng`` both resolve to ``numpy.random.default_rng``;
* *what text is on line N?* -- for snippets and fingerprints.

A context is built once per file and run: one read, one parse, one
import map and one token pass serve every per-file rule and the
file's whole-program summary (:mod:`repro.lint.project`).
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.pragmas import Suppressions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.config import LintConfig


def build_import_map(nodes: list[ast.AST]) -> dict[str, str]:
    """Local name -> fully dotted module/symbol path, from every
    ``import``/``from ... import`` among a file's ``nodes`` (any
    nesting level).

    Relative imports (``from .foo import bar``) stay unresolved -- the
    linter targets absolute third-party/stdlib hazards, and a relative
    alias can never shadow ``numpy``/``time``/``random``.
    """
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                full = alias.name if alias.asname else local
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


@dataclass
class FileContext:
    """Everything a rule needs to analyse one file."""

    rel_path: str
    source: str
    tree: ast.AST
    suppressions: Suppressions
    #: every node of ``tree`` in ``ast.walk`` order, walked once for
    #: all the rules that scan the whole file
    nodes: list[ast.AST] = field(default_factory=list)
    imports: dict[str, str] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    #: set by the engine; rules read per-rule options through
    #: :meth:`options_for` so standalone (test) contexts fall back to
    #: packaged defaults.
    config: "LintConfig | None" = None

    @classmethod
    def parse(cls, rel_path: str, source: str) -> "FileContext":
        tree = ast.parse(source)
        nodes = list(ast.walk(tree))
        # Numbered the way the tokenizer and the AST number lines:
        # ``str.splitlines`` would also break at form feed, \x1c-\x1e,
        # \x85, \u2028 and \u2029.
        lines = source.split("\n")
        return cls(
            rel_path=rel_path,
            source=source,
            tree=tree,
            suppressions=Suppressions.scan(source, lines),
            nodes=nodes,
            imports=build_import_map(nodes),
            lines=lines,
        )

    @classmethod
    def read(cls, path: Path, rel_path: str) -> "FileContext":
        """:meth:`parse` the file at ``path``, decoded the way Python
        decodes it (UTF-8 BOM, PEP 263 coding cookie, universal
        newlines).  A file that does not decode raises ``SyntaxError``
        at its first bad byte, like one that does not parse."""
        raw = path.read_bytes()
        encoding, _ = tokenize.detect_encoding(io.BytesIO(raw).readline)
        try:
            source = raw.decode(encoding)
        except UnicodeDecodeError as error:
            # The offset is into what the codec saw (a BOM excluded).
            seen = error.object[: error.start]
            raise SyntaxError(
                f"cannot decode as {encoding} ({error.reason})",
                (
                    rel_path,
                    seen.count(b"\n") + 1,
                    len(seen) - seen.rfind(b"\n"),
                    None,
                ),
            ) from None
        return cls.parse(rel_path, io.StringIO(source, newline=None).read())

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def qualname(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted path through the
        import map; None when the expression is not a plain chain
        (calls, subscripts, literals...).

        A local variable that happens to share a module's name wins --
        alias resolution is a heuristic, which is the right trade for
        a linter: the repo convention (``import numpy as np``) resolves
        exactly, and a shadowing false positive is one pragma away.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def call_qualname(self, node: ast.Call) -> str | None:
        """:meth:`qualname` of a call's callee."""
        return self.qualname(node.func)

    def is_suppressed(self, finding: Finding) -> bool:
        return self.suppressions.allows(finding.rule, finding.line)

    def options_for(self, rule_id: str) -> dict:
        """Per-rule options from the active config, falling back to
        the packaged defaults when the context was built bare."""
        if self.config is not None:
            return self.config.options_for(rule_id)
        from repro.lint.config import DEFAULT_RULE_OPTIONS

        return DEFAULT_RULE_OPTIONS.get(rule_id, {})
