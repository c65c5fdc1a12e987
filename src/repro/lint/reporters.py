"""Human-readable and JSON renderings of a lint run.

The JSON schema is a published contract (CI uploads it as an
artifact; tests pin it): bump :data:`REPORT_VERSION` on any
shape change and keep old keys stable otherwise.
"""

from __future__ import annotations

import json

from repro.lint.engine import LintResult
from repro.lint.registry import RULES

REPORT_SCHEMA = "repro-lint-report"
#: v2 added the "project" section (call-graph stats from --project;
#: null on per-file-only runs); v3 dropped its summary-cache counts.
REPORT_VERSION = 3


def render_human(result: LintResult, verbose: bool = False) -> str:
    """``path:line:col: RULE severity: message`` lines plus a summary
    tail -- terse on success, complete on failure."""
    out: list[str] = []
    for finding in result.findings:
        out.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule} {finding.severity}: {finding.message}"
        )
        if finding.snippet:
            out.append(f"    {finding.snippet}")
    if result.stale_baseline:
        out.append("")
        out.append(
            "stale baseline entries (fixed or drifted; run "
            "--update-baseline to prune):"
        )
        for entry in result.stale_baseline:
            note = f"  # {entry.note}" if entry.note else ""
            out.append(f"  {entry.path}: {entry.rule}{note}")
    out.append("")
    counts = result.counts_by_rule()
    if counts:
        per_rule = ", ".join(f"{rule}={n}" for rule, n in counts.items())
        out.append(
            f"{len(result.findings)} finding(s) in "
            f"{result.files_scanned} file(s) [{per_rule}]"
        )
    else:
        out.append(
            f"0 findings in {result.files_scanned} file(s)"
            + (
                f" ({len(result.baselined)} baselined)"
                if result.baselined
                else ""
            )
        )
    if result.project is not None:
        stats = result.project
        out.append(
            f"project pass: {stats['functions']} function(s) in "
            f"{stats['modules']} module(s), {stats['call_edges']} call "
            f"edge(s)"
        )
    if verbose and result.baselined:
        out.append("baselined findings:")
        for finding in result.baselined:
            out.append(
                f"  {finding.path}:{finding.line}: {finding.rule}"
            )
    return "\n".join(out)


def render_json(result: LintResult) -> str:
    """Stable machine-readable report (sorted keys, versioned)."""
    payload = {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "ok": result.ok,
        "files_scanned": result.files_scanned,
        "project": result.project,
        "findings": [f.to_dict() for f in result.findings],
        "baselined": [f.to_dict() for f in result.baselined],
        "stale_baseline": [e.to_dict() for e in result.stale_baseline],
        "summary": {
            "new": len(result.findings),
            "baselined": len(result.baselined),
            "stale": len(result.stale_baseline),
            "by_rule": result.counts_by_rule(),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """``--list-rules`` output: id, severity, scope, title, rationale."""
    out: list[str] = []
    for rule in sorted(RULES.values(), key=lambda r: r.id):
        out.append(
            f"{rule.id}  [{rule.severity}, scope={rule.scope}]  {rule.title}"
        )
        if rule.rationale:
            for line in rule.rationale.strip().splitlines():
                out.append(f"    {line.strip()}")
    return "\n".join(out)
