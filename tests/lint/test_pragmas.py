"""Suppression pragma semantics."""

from __future__ import annotations

from repro.lint import lint_file

from tests.lint.conftest import permissive_config


def _lint_source(tmp_path, source: str):
    path = tmp_path / "mod.py"
    path.write_text(source)
    return lint_file(path, permissive_config(tmp_path))


def test_trailing_pragma_suppresses_its_line(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def f(x):\n"
        "    return x == 0.5  # repro: allow[FLOAT-EQ] -- audited\n",
    )
    assert findings == []


def test_standalone_pragma_suppresses_next_code_line(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def f(x):\n"
        "    # repro: allow[FLOAT-EQ] -- audited\n"
        "    # (continued justification comment)\n"
        "\n"
        "    return x == 0.5\n",
    )
    assert findings == []


def test_pragma_must_name_the_right_rule(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def f(x):\n"
        "    return x == 0.5  # repro: allow[AMBIENT-TIME] -- wrong id\n",
    )
    assert [f.rule for f in findings] == ["FLOAT-EQ"]


def test_pragma_does_not_leak_to_other_lines(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def f(x):\n"
        "    a = x == 0.5  # repro: allow[FLOAT-EQ] -- this line only\n"
        "    return x == 1.5\n",
    )
    assert [(f.rule, f.line) for f in findings] == [("FLOAT-EQ", 3)]


def test_multiple_ids_in_one_pragma(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "def f(x):\n"
        "    # repro: allow[FLOAT-EQ, AMBIENT-TIME] -- both audited\n"
        "    return x == 0.5 and time.time()\n",
    )
    assert findings == []


def test_allow_file_suppresses_whole_file(tmp_path):
    findings = _lint_source(
        tmp_path,
        "# repro: allow-file[FLOAT-EQ] -- generated comparison table\n"
        "def f(x):\n"
        "    a = x == 0.5\n"
        "    return x == 1.5\n",
    )
    assert findings == []


def test_allow_file_is_per_rule(tmp_path):
    findings = _lint_source(
        tmp_path,
        "# repro: allow-file[FLOAT-EQ]\n"
        "import time\n"
        "def f(x):\n"
        "    return x == 0.5 and time.time()\n",
    )
    assert [f.rule for f in findings] == ["AMBIENT-TIME"]


def test_form_feed_is_not_a_line_break(tmp_path):
    """The tokenizer and the AST treat a form feed as whitespace, so
    pragmas and snippets must number lines the same way."""
    source = (
        "x = 1\n"
        "\x0c\n"
        "def f(y):\n"
        "    # repro: allow[FLOAT-EQ] -- audited\n"
        "    return y == 0.5\n"
    )
    assert _lint_source(tmp_path, source) == []
    unwaived = source.replace("# repro: allow[FLOAT-EQ]", "# audited")
    [finding] = _lint_source(tmp_path, unwaived)
    assert (finding.line, finding.snippet) == (5, "return y == 0.5")
