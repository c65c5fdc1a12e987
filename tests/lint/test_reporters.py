"""JSON report schema stability and human rendering."""

from __future__ import annotations

import json

from repro.lint import run_lint
from repro.lint.reporters import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    render_human,
    render_json,
    render_rule_list,
)

from tests.lint.conftest import permissive_config


def _result(tmp_path, source: str):
    (tmp_path / "mod.py").write_text(source)
    return run_lint([tmp_path], permissive_config(tmp_path))


def test_json_report_top_level_schema_is_pinned(tmp_path):
    """CI consumes this artifact; the key set is a contract. Adding or
    renaming keys requires a REPORT_VERSION bump."""
    result = _result(tmp_path, "def f(x):\n    return x == 0.5\n")
    payload = json.loads(render_json(result))
    assert set(payload) == {
        "schema",
        "version",
        "ok",
        "files_scanned",
        "findings",
        "baselined",
        "stale_baseline",
        "summary",
        "project",
    }
    assert payload["schema"] == REPORT_SCHEMA == "repro-lint-report"
    assert payload["version"] == REPORT_VERSION == 3
    assert payload["ok"] is False
    assert payload["project"] is None  # project pass did not run
    assert set(payload["summary"]) == {"new", "baselined", "stale", "by_rule"}
    assert payload["summary"]["by_rule"] == {"FLOAT-EQ": 1}


def test_json_finding_shape_is_pinned(tmp_path):
    result = _result(tmp_path, "def f(x):\n    return x == 0.5\n")
    payload = json.loads(render_json(result))
    (finding,) = payload["findings"]
    assert set(finding) == {
        "rule",
        "severity",
        "path",
        "line",
        "col",
        "message",
        "snippet",
        "fingerprint",
    }
    assert finding["rule"] == "FLOAT-EQ"
    assert finding["severity"] == "error"
    assert finding["line"] == 2
    assert len(finding["fingerprint"]) == 40  # sha1 hex


def test_json_output_is_deterministic(tmp_path):
    result = _result(tmp_path, "def f(x):\n    return x == 0.5\n")
    assert render_json(result) == render_json(result)


def test_human_report_names_rule_and_location(tmp_path):
    result = _result(tmp_path, "def f(x):\n    return x == 0.5\n")
    text = render_human(result)
    assert "mod.py:2:" in text
    assert "FLOAT-EQ" in text
    assert "1 finding(s)" in text


def test_human_report_clean_summary(tmp_path):
    result = _result(tmp_path, "def f(x):\n    return x <= 0.5\n")
    assert "0 findings in 1 file(s)" in render_human(result)


def test_project_stats_render_in_both_formats(tmp_path):
    (tmp_path / "mod.py").write_text("def f(x):\n    return x <= 0.5\n")
    config = permissive_config(tmp_path)
    config.roots = ["."]
    result = run_lint([tmp_path], config, project=True)
    payload = json.loads(render_json(result))
    assert set(payload["project"]) == {"modules", "functions", "call_edges"}
    assert payload["project"]["modules"] == 1
    assert "project pass:" in render_human(result)


def test_rule_list_mentions_every_rule():
    from repro.lint import RULES

    listing = render_rule_list()
    for rule_id in RULES:
        assert rule_id in listing
