"""The lint driver: walk files, run scoped rules, apply the baseline.

Kept free of CLI concerns so tests (and future tooling) can call
:func:`run_lint` in-process and get structured results back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.callgraph import CallGraph
from repro.lint.config import LintConfig
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.project import ProjectModel
from repro.lint.registry import RULES, ProjectRule

#: Pseudo-rule id for files the parser rejects: a file that cannot be
#: parsed cannot be checked, which must fail the gate rather than pass
#: it silently.
PARSE_ERROR = "PARSE-ERROR"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)  #: new (gate-failing)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0
    #: call-graph statistics when the ``--project`` pass ran, else None
    project: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the zero-new-findings gate passes: nothing new
        *and* no dead baseline entries."""
        return not self.findings and not self.stale_baseline

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        # Outside the root (absolute fixture paths in tests): keep the
        # name stable rather than erroring.
        return path.as_posix()


def iter_python_files(paths: list[Path], config: LintConfig) -> list[Path]:
    """Expand files/directories into the sorted, de-duplicated list of
    lintable ``.py`` files, honouring config excludes."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        path = Path(path)
        if not path.is_absolute():
            path = config.root / path
        candidates = (
            sorted(path.rglob("*.py")) if path.is_dir() else [path]
        )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            if candidate.suffix != ".py":
                continue
            if config.is_excluded(_rel_path(candidate, config.root)):
                continue
            out.append(candidate)
    return out


def _parse_error(rel_path: str, error: SyntaxError) -> Finding:
    return Finding(
        rule=PARSE_ERROR,
        severity=Severity.ERROR,
        path=rel_path,
        line=error.lineno or 1,
        col=(error.offset or 1) - 1,
        message=f"file does not parse: {error.msg}",
    )


def _check(
    ctx: FileContext, config: LintConfig, rules=None
) -> list[Finding]:
    """The non-suppressed per-file findings for one context."""
    findings: list[Finding] = []
    for rule in RULES.values() if rules is None else rules:
        if not config.rule_applies(rule, ctx.rel_path):
            continue
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding):
                findings.append(finding)
    return findings


def lint_file(
    path: Path, config: LintConfig, rules: list | None = None
) -> list[Finding]:
    """All non-suppressed findings for one file."""
    rel = _rel_path(Path(path), config.root)
    try:
        ctx = FileContext.read(path, rel)
    except SyntaxError as error:
        return [_parse_error(rel, error)]
    ctx.config = config
    return sorted(_check(ctx, config, rules), key=lambda f: f.sort_key)


def run_project_pass(
    model: ProjectModel, lint_rel_paths: set[str], config: LintConfig
) -> tuple[list[Finding], dict]:
    """The whole-program pass: run every :class:`ProjectRule` over the
    model of *all* configured roots (an inter-procedural property of a
    file depends on its callers elsewhere), and keep the findings
    anchored in ``lint_rel_paths``."""
    graph = CallGraph(model)
    findings: list[Finding] = []
    for rule in RULES.values():
        if not isinstance(rule, ProjectRule):
            continue
        for finding in rule.check_project(model, graph, config):
            if finding.path not in lint_rel_paths:
                continue
            if not config.rule_applies(rule, finding.path):
                continue
            supp = model.suppressions_for(finding.path)
            if supp.allows(finding.rule, finding.line):
                continue
            findings.append(finding)
    stats = {
        "modules": len(model.summaries),
        "functions": model.function_count,
        "call_edges": graph.edge_count,
    }
    return findings, stats


def run_lint(
    paths: list[Path],
    config: LintConfig,
    baseline: Baseline | None = None,
    project: bool = False,
    model: ProjectModel | None = None,
) -> LintResult:
    """Lint ``paths`` and split findings against ``baseline``.

    With ``project=True`` the whole-program pass runs on top, over
    ``model`` when the caller already built one (``--changed`` does,
    to find callers) and otherwise over every file under the
    configured roots; its findings join the same baseline/exit-code
    machinery.  Each file is read, parsed and tokenized once: its
    per-file rules run on the context, its summary is built from the
    same context, and the tree is dropped before the next file.
    """
    result = LintResult()
    targets = {
        _rel_path(path, config.root): path
        for path in iter_python_files(paths, config)
    }
    files = dict(targets)
    summarize: set[str] = set()
    if project and model is None:
        model = ProjectModel(root=config.root)
        for path in iter_python_files(
            [config.root / root for root in config.roots], config
        ):
            rel = _rel_path(path, config.root)
            summarize.add(rel)
            files.setdefault(rel, path)
    all_findings: list[Finding] = []
    for rel, path in files.items():
        try:
            ctx = FileContext.read(path, rel)
        except SyntaxError as error:
            if rel in targets:
                all_findings.append(_parse_error(rel, error))
            continue
        ctx.config = config
        if rel in targets:
            all_findings.extend(_check(ctx, config))
        if rel in summarize:
            model.add(ctx)
    result.files_scanned = len(targets)
    if project:
        project_findings, result.project = run_project_pass(
            model, set(targets), config
        )
        all_findings.extend(project_findings)
    all_findings.sort(key=lambda f: f.sort_key)
    if baseline is None:
        baseline = Baseline()
    new, baselined, stale = baseline.partition(all_findings)
    result.findings = new
    result.baselined = baselined
    result.stale_baseline = stale
    return result
