"""The whole-program pass: call graph resolution and project rules.

Each inter-procedural rule gets a bad+good fixture *project* (a
directory, not a file -- the hazards only exist across files), and the
call graph is unit-tested against a fixture package exercising every
resolution shape it claims to handle.
"""

from __future__ import annotations

import ast
import shutil
import tokenize

import pytest

from repro.lint import LintConfig, run_lint
from repro.lint.callgraph import CallGraph
from repro.lint.engine import iter_python_files
from repro.lint.context import FileContext
from repro.lint.project import build_project, module_name_for, summarize

from tests.lint.conftest import (
    INTERPROC,
    lint_project_fixture,
    project_config,
)

#: rule id -> (bad fixture project, exact findings, good project)
PROJECT_CORPUS = {
    "TAINT-FLOW": ("taint_flow_bad", 2, "taint_flow_good"),
    "LOCK-CALL": ("lock_call_bad", 1, "lock_call_good"),
    "LOCK-ORDER": ("lock_order_bad", 2, "lock_order_good"),
    "PARITY-ORPHAN": ("parity_orphan_bad", 1, "parity_orphan_good"),
    "PRAGMA-STALE": ("pragma_stale_bad", 1, "pragma_stale_good"),
}


@pytest.mark.parametrize("rule_id", sorted(PROJECT_CORPUS))
def test_bad_project_triggers_rule(rule_id):
    bad, expected, _ = PROJECT_CORPUS[rule_id]
    result = lint_project_fixture(bad)
    hits = [f for f in result.findings if f.rule == rule_id]
    assert len(hits) == expected, (
        f"{bad}: expected {expected} {rule_id} findings, got "
        f"{[(f.path, f.line, f.rule) for f in result.findings]}"
    )
    for finding in hits:
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("rule_id", sorted(PROJECT_CORPUS))
def test_good_project_is_fully_clean(rule_id):
    _, _, good = PROJECT_CORPUS[rule_id]
    result = lint_project_fixture(good)
    assert result.findings == [], (
        f"{good} should be clean under every rule, got "
        f"{[(f.rule, f.path, f.line) for f in result.findings]}"
    )


def test_taint_finding_reports_the_full_witness_chain():
    """The two-hop relay (compute.evaluate_relayed -> wrapped_stamp ->
    stamp -> time.time) must surface the whole chain and the concrete
    source, not just the first edge."""
    result = lint_project_fixture("taint_flow_bad")
    relayed = [
        f
        for f in result.findings
        if f.rule == "TAINT-FLOW" and "evaluate_relayed" in f.message
    ]
    assert len(relayed) == 1
    message = relayed[0].message
    assert "wrapped_stamp" in message
    assert "util.helpers.stamp" in message
    assert "time.time" in message


def test_lock_call_finding_lands_on_the_unlocked_site():
    result = lint_project_fixture("lock_call_bad")
    hits = [f for f in result.findings if f.rule == "LOCK-CALL"]
    assert [f.snippet for f in hits] == [
        "self._bump()  # LOCK-CALL: no lock held here"
    ]


def test_lock_order_flags_both_directions():
    """The inversion is only visible because forward() acquires LOCK_B
    *transitively* (through helper()); both sites are reported."""
    result = lint_project_fixture("lock_order_bad")
    hits = [f for f in result.findings if f.rule == "LOCK-ORDER"]
    assert len(hits) == 2
    lines = sorted(f.line for f in hits)
    assert lines == [11, 21]


# -- call graph unit tests -------------------------------------------------


def _graph(name: str = "callgraph"):
    root = INTERPROC / name
    config = project_config(root)
    model = build_project(iter_python_files([root], config), config)
    return model, CallGraph(model)


def test_module_names_strip_src_and_init():
    assert module_name_for("src/repro/core/runner.py") == "repro.core.runner"
    assert module_name_for("src/repro/api/__init__.py") == "repro.api"
    assert module_name_for("tests/lint/test_project.py") == (
        "tests.lint.test_project"
    )


def test_resolve_follows_package_reexports():
    _, graph = _graph()
    assert graph.resolve("pkg.make_widget") == "pkg.impl.make_widget"
    assert graph.resolve("pkg.impl.make_widget") == "pkg.impl.make_widget"
    assert graph.resolve("pkg.no_such_thing") is None
    assert graph.resolve("os.path.join") is None


def test_instantiation_edges_point_at_init():
    _, graph = _graph()
    callees = {e.callee for e in graph.edges["pkg.impl.make_widget"]}
    assert "pkg.impl.Widget.__init__" in callees


def test_method_calls_resolve_through_bases_attrs_and_module():
    _, graph = _graph()
    callees = {e.callee for e in graph.edges["pkg.impl.Widget.run"]}
    assert callees == {
        "pkg.impl.Base.ping",  # inherited, via base-class walk
        "pkg.impl.Helper.assist",  # via inferred attr type of self.helper
        "pkg.impl.stamp",  # bare same-module call
    }


def test_registry_get_edges_reach_registered_builders():
    _, graph = _graph()
    assert graph.registered_builders("BUILDERS") == ["builders.build_widget"]
    callees = {e.callee for e in graph.edges["main.dispatch"]}
    assert "builders.build_widget" in callees


def test_cycles_terminate_and_do_not_taint():
    _, graph = _graph()
    assert {e.callee for e in graph.edges["cycle.ping"]} == {"cycle.pong"}
    assert {e.callee for e in graph.edges["cycle.pong"]} == {"cycle.ping"}
    tainted = graph.propagate_taint()
    assert "cycle.ping" not in tainted
    assert "cycle.pong" not in tainted


def test_taint_propagates_with_a_witness_chain():
    _, graph = _graph()
    tainted = graph.propagate_taint()
    assert "pkg.impl.stamp" in tainted  # direct time.time()
    assert "pkg.impl.Widget.run" in tainted  # one hop away
    chain, source = graph.taint_chain("pkg.impl.Widget.run", tainted)
    assert chain == ["pkg.impl.Widget.run", "pkg.impl.stamp"]
    assert source is not None
    assert source["rule"] == "AMBIENT-TIME"
    assert source["what"] == "time.time"


def test_caller_files_walks_the_reverse_graph():
    _, graph = _graph()
    impacted = graph.caller_files({"pkg/impl.py"})
    assert "main.py" in impacted  # main.top -> pkg.impl.make_widget
    assert "cycle.py" not in impacted


def _fixture_copy(name: str, tmp_path):
    """A fresh copy of an interproc fixture project."""
    root = tmp_path / name
    shutil.copytree(
        INTERPROC / name,
        root,
        ignore=shutil.ignore_patterns(".lint-cache", "__pycache__"),
    )
    return root


def test_project_pass_parses_and_tokenizes_each_file_once(
    monkeypatch, tmp_path
):
    """The per-file rules and the project summary share one context:
    one ``ast.parse`` and one token pass per file and run."""
    root = _fixture_copy("callgraph", tmp_path)
    calls = {"parse": 0, "tokenize": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ast, "parse", counting("parse", ast.parse))
    monkeypatch.setattr(
        tokenize,
        "generate_tokens",
        counting("tokenize", tokenize.generate_tokens),
    )
    result = run_lint([root], project_config(root), project=True)
    assert result.files_scanned == result.project["modules"] == 6
    assert calls == {"parse": 6, "tokenize": 6}


def test_summary_records_one_source_per_environment_read():
    ctx = FileContext.parse(
        "mod.py",
        "import os\n"
        "from os import environ\n"
        "def f():\n"
        "    return os.environ.get('X'), os.environ['Y']\n"
        "def g():\n"
        "    return dict(environ), environ['Y'], environ.get('Z')\n",
    )
    sources = [
        (source["rule"], source["what"], source["line"])
        for function in summarize(ctx)["functions"]
        for source in function["sources"]
    ]
    assert sources == [
        ("AMBIENT-ENV", "os.environ.get", 4),
        ("AMBIENT-ENV", "os.environ", 4),
        ("AMBIENT-ENV", "os.environ", 6),
        ("AMBIENT-ENV", "os.environ", 6),
        ("AMBIENT-ENV", "os.environ.get", 6),
    ]


def test_project_pass_writes_nothing_under_its_root(tmp_path):
    root = _fixture_copy("taint_flow_bad", tmp_path)
    before = sorted(root.rglob("*"))
    result = run_lint([root], project_config(root), project=True)
    assert result.findings  # the pass really ran over the copy
    assert sorted(root.rglob("*")) == before


def test_project_stats_are_reported():
    result = lint_project_fixture("callgraph")
    assert result.project is not None
    assert result.project["modules"] == 6
    assert result.project["functions"] > 0
    assert result.project["call_edges"] >= 6


def test_project_pass_off_by_default(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f():\n    return 1\n")
    config = LintConfig(
        root=tmp_path,
        roots=["."],
        exclude=[],
        scopes={"parity": [], "compute": [], "src": []},
    )
    result = run_lint([tmp_path], config)
    assert result.project is None
