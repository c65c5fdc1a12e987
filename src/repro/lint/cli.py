"""Command-line entry point: ``python -m repro.lint`` / ``scripts/lint.py``.

Exit codes: 0 gate passes, 1 findings (or stale baseline entries),
2 usage/config error.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.callgraph import CallGraph
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import _rel_path, iter_python_files, run_lint
from repro.lint.project import ProjectModel, build_project
from repro.lint.reporters import render_human, render_json, render_rule_list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "Determinism & dependability linter for the repro stack "
            "(AST-based; see docs/lint.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: configured roots)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root for config, baseline and relative paths",
    )
    parser.add_argument(
        "--config", default=None, help="explicit lint.toml path"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format on stdout",
    )
    parser.add_argument(
        "--json-output",
        default=None,
        metavar="PATH",
        help="additionally write the JSON report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: from config; need not exist)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to cover exactly the current "
            "findings (prunes stale entries, keeps notes) and exit 0"
        ),
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help=(
            "also run the whole-program pass: call-graph taint flow, "
            "inter-procedural lock discipline, parity obligations"
        ),
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "lint git-modified/untracked .py files plus their "
            "reverse-call-graph callers (fast local loop; baseline "
            "still applies)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="also list baselined findings"
    )
    return parser


def _git_changed_files(root: Path) -> list[Path]:
    """Tracked-modified plus untracked .py files, repo-relative."""
    files: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, check=True
        )
        files.update(line.strip() for line in proc.stdout.splitlines())
    return sorted(
        root / name
        for name in files
        if name.endswith(".py") and (root / name).exists()
    )


def _with_callers(
    paths: list[Path], config: LintConfig
) -> tuple[list[Path], ProjectModel]:
    """Impact analysis for ``--changed``: expand the changed set with
    every file whose call graph reaches into it -- an edit to a helper
    re-lints the paths that depend on it, not just the helper.  The
    model comes back too, so ``--project`` checks it instead of
    building it again."""
    all_files = iter_python_files(
        [config.root / root for root in config.roots], config
    )
    model = build_project(all_files, config)
    changed_rel = {_rel_path(p, config.root) for p in paths}
    impacted = CallGraph(model).caller_files(changed_rel)
    extra = [
        path
        for path in all_files
        if _rel_path(path, config.root) in impacted
    ]
    return sorted({*paths, *extra}), model


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        # Rule registration happens on package import; importing here
        # keeps --list-rules honest even if cli is imported bare.
        import repro.lint  # noqa: F401

        print(render_rule_list())
        return 0

    root = Path(args.root).resolve()
    try:
        config = load_config(
            root, Path(args.config) if args.config else None
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"repro.lint: {error}", file=sys.stderr)
        return 2

    import repro.lint  # noqa: F401  (register rules)

    model = None
    if args.changed:
        try:
            paths = _git_changed_files(root)
        except (OSError, subprocess.CalledProcessError) as error:
            print(
                f"repro.lint: --changed needs a git checkout: {error}",
                file=sys.stderr,
            )
            return 2
        if not paths:
            print("0 findings in 0 file(s) [--changed: nothing modified]")
            return 0
        paths, model = _with_callers(paths, config)
    else:
        paths = [Path(p) for p in args.paths] or [
            root / r for r in config.roots
        ]

    baseline_path = Path(args.baseline) if args.baseline else (
        root / config.baseline_path
    )
    if args.no_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError, KeyError) as error:
            print(f"repro.lint: bad baseline: {error}", file=sys.stderr)
            return 2

    result = run_lint(
        paths, config, baseline, project=args.project, model=model
    )

    if args.update_baseline:
        notes = {e.fingerprint: e.note for e in baseline.entries if e.note}
        updated = Baseline.from_findings(
            result.findings + result.baselined, notes
        )
        updated.save(baseline_path)
        print(
            f"baseline updated: {len(updated.entries)} entr"
            f"{'y' if len(updated.entries) == 1 else 'ies'} -> {baseline_path}"
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_human(result, verbose=args.verbose))
    if args.json_output:
        Path(args.json_output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json_output).write_text(
            render_json(result) + "\n", encoding="utf-8"
        )
    return 0 if result.ok else 1


__all__ = ["build_parser", "main", "LintConfig"]
