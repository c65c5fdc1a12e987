"""CLI exit codes and flags (in-process via ``main(argv)``)."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.lint.cli import main

CLEAN = "def f(x):\n    return x <= 0.5\n"
VIOLATION = "def f(x):\n    return x == 0.5\n"

#: lint.toml making every rule apply everywhere, so CLI behaviour can
#: be tested without replicating the repo's path policy.
PERMISSIVE_TOML = """
[lint]
roots = ["."]
exclude = []
baseline = "lint-baseline.json"

[lint.scopes]
parity = ["*"]
compute = ["*"]
src = ["*"]

[lint.rules."RNG-SEED"]
strict_paths = ["*"]
"""


def _repo(tmp_path, source: str):
    (tmp_path / "lint.toml").write_text(PERMISSIVE_TOML)
    (tmp_path / "mod.py").write_text(source)
    return tmp_path


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    root = _repo(tmp_path, CLEAN)
    assert main(["--root", str(root)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_exit_one_on_violation(tmp_path, capsys):
    root = _repo(tmp_path, VIOLATION)
    assert main(["--root", str(root)]) == 1
    assert "FLOAT-EQ" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fixture_name",
    [
        "float_eq_bad.py",
        "rng_legacy_bad.py",
        "reduce_order_bad.py",
        "ambient_time_bad.py",
        "lock_guard_bad.py",
        "mut_default_bad.py",
    ],
)
def test_exit_one_on_each_fixture_violation_class(
    tmp_path, capsys, fixture_name
):
    """Acceptance criterion: a test proves the linter exits non-zero
    on each class of fixture violation."""
    from tests.lint.conftest import FIXTURES

    root = _repo(tmp_path, CLEAN)
    (tmp_path / fixture_name).write_text(
        (FIXTURES / fixture_name).read_text()
    )
    assert main(["--root", str(root)]) == 1
    capsys.readouterr()


def test_json_format_and_artifact_output(tmp_path, capsys):
    root = _repo(tmp_path, VIOLATION)
    artifact = tmp_path / "out" / "report.json"
    code = main(
        [
            "--root",
            str(root),
            "--format",
            "json",
            "--json-output",
            str(artifact),
        ]
    )
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(artifact.read_text())
    assert stdout_payload == file_payload
    assert file_payload["ok"] is False


def test_update_baseline_then_gate_passes(tmp_path, capsys):
    root = _repo(tmp_path, VIOLATION)
    assert main(["--root", str(root)]) == 1
    assert main(["--root", str(root), "--update-baseline"]) == 0
    assert (root / "lint-baseline.json").exists()
    assert main(["--root", str(root)]) == 0
    capsys.readouterr()


def test_stale_baseline_fails_until_updated(tmp_path, capsys):
    root = _repo(tmp_path, VIOLATION)
    main(["--root", str(root), "--update-baseline"])
    (root / "mod.py").write_text(CLEAN)
    assert main(["--root", str(root)]) == 1
    assert "stale baseline" in capsys.readouterr().out
    assert main(["--root", str(root), "--update-baseline"]) == 0
    assert main(["--root", str(root)]) == 0
    assert json.loads((root / "lint-baseline.json").read_text())[
        "entries"
    ] == []
    capsys.readouterr()


def test_no_baseline_flag_ignores_grandfathering(tmp_path, capsys):
    root = _repo(tmp_path, VIOLATION)
    main(["--root", str(root), "--update-baseline"])
    assert main(["--root", str(root)]) == 0
    assert main(["--root", str(root), "--no-baseline"]) == 1
    capsys.readouterr()


def test_list_rules_exits_zero(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "FLOAT-EQ" in out and "LOCK-GUARD" in out


#: id -> lint.toml text.  Past the first, each puts something other
#: than a list of strings where one belongs; a bare string used to
#: iterate as its characters (``roots = "src"`` scanned s, r and c).
BAD_CONFIGS = {
    "invalid-toml": "not [valid toml\n",
    "roots-string": '[lint]\nroots = "src"\n',
    "roots-int-item": '[lint]\nroots = ["src", 1]\n',
    "exclude-string": '[lint]\nexclude = "build/*"\n',
    "disabled-string": '[lint]\ndisabled = "FLOAT-EQ"\n',
    "scope-string": '[lint.scopes]\nparity = "src/*"\n',
    "rule-exclude-string": '[lint.rules."FLOAT-EQ"]\nexclude = "tests/*"\n',
    "strict-paths-string": (
        '[lint.rules."RNG-SEED"]\nstrict_paths = "src/*"\n'
    ),
    "test-globs-string": (
        '[lint.rules."PARITY-ORPHAN"]\ntest_globs = "tests/*"\n'
    ),
}


@pytest.mark.parametrize("toml", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_bad_config_is_usage_error(tmp_path, capsys, toml):
    (tmp_path / "lint.toml").write_text(toml)
    (tmp_path / "mod.py").write_text(VIOLATION)
    assert main(["--root", str(tmp_path)]) == 2
    assert "repro.lint:" in capsys.readouterr().err


def test_unparseable_file_fails_the_gate(tmp_path, capsys):
    root = _repo(tmp_path, "def broken(:\n")
    assert main(["--root", str(root)]) == 1
    assert "PARSE-ERROR" in capsys.readouterr().out


def test_file_with_a_utf8_bom_lints_clean(tmp_path, capsys):
    root = _repo(tmp_path, CLEAN)
    (root / "mod.py").write_bytes(b"\xef\xbb\xbf" + CLEAN.encode())
    assert main(["--root", str(root)]) == 0
    assert "0 findings in 1 file(s)" in capsys.readouterr().out


def test_coding_cookie_is_honoured(tmp_path, capsys):
    """A latin-1 file with a PEP 263 cookie runs under Python, so the
    linter decodes it the same way and reports its real finding."""
    root = _repo(tmp_path, CLEAN)
    (root / "mod.py").write_bytes(
        "# -*- coding: latin-1 -*-\n"
        "CAFE = 'caf\u00e9'\n"
        "\n"
        "\n"
        "def f(x):\n"
        "    return x == 0.5\n".encode("latin-1")
    )
    assert main(["--root", str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["line"]) for f in payload["findings"]] == [
        ("FLOAT-EQ", 6)
    ]


def test_undecodable_file_is_one_parse_error(tmp_path, capsys):
    root = _repo(tmp_path, CLEAN)
    (root / "mod.py").write_bytes(
        b"x = 1\n\n\ndef f():\n    return 'caf\xe9'\n"
    )
    assert main(["--root", str(root), "--project", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["PARSE-ERROR"]
    assert "decode" in payload["findings"][0]["message"]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_undecodable_file_names_the_bad_byte(tmp_path, capsys, bom):
    root = _repo(tmp_path, CLEAN)
    (root / "mod.py").write_bytes(
        bom + b"x = 1\n\n\ndef f():\n    return 'caf\xe9'\n"
    )
    assert main(["--root", str(root), "--format", "json"]) == 1
    [finding] = json.loads(capsys.readouterr().out)["findings"]
    assert (finding["rule"], finding["line"], finding["col"]) == (
        "PARSE-ERROR", 5, 15
    )


def _git(root, *argv):
    subprocess.run(
        ["git", *argv],
        cwd=root,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(root),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


def test_changed_lints_only_modified_files(tmp_path, capsys):
    root = _repo(tmp_path, CLEAN)
    # A committed violation elsewhere in the tree must NOT be linted
    # by --changed; only the post-commit edit is.
    (root / "legacy.py").write_text(VIOLATION)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "seed")

    assert main(["--root", str(root), "--changed"]) == 0
    assert "nothing modified" in capsys.readouterr().out

    (root / "mod.py").write_text(VIOLATION)  # tracked, modified
    (root / "fresh.py").write_text(VIOLATION)  # untracked
    assert main(["--root", str(root), "--changed"]) == 1
    out = capsys.readouterr().out
    assert "mod.py" in out and "fresh.py" in out
    assert "legacy.py" not in out


def test_changed_relints_callers_of_a_modified_helper(tmp_path, capsys):
    """Impact analysis: an innocent edit to helper.py must pull
    caller.py (whose violation sits on a call into the helper) back
    into the lint set through the reverse call graph."""
    root = _repo(tmp_path, CLEAN)
    (root / "helper.py").write_text("def helper(x):\n    return x + 1\n")
    (root / "caller.py").write_text(
        "from helper import helper\n"
        "\n"
        "\n"
        "def use(x):\n"
        "    return helper(x) == 0.5\n"
    )
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "seed")

    # The committed violation in caller.py is invisible to --changed...
    assert main(["--root", str(root), "--changed"]) == 0
    capsys.readouterr()

    # ...until its helper is touched: the clean edit re-lints callers.
    (root / "helper.py").write_text("def helper(x):\n    return x + 2\n")
    assert main(["--root", str(root), "--changed"]) == 1
    out = capsys.readouterr().out
    assert "caller.py" in out and "FLOAT-EQ" in out
    assert "mod.py" not in out


PRAGMA_STALE = (
    "def f(x):\n"
    "    return x == 0.5  "
    "# repro: allow[FLOAT-EQ] -- pinned by tests/test_gone.py\n"
)


def test_project_flag_catches_stale_pragma_citations(tmp_path, capsys):
    root = _repo(tmp_path, PRAGMA_STALE)
    # Lexically the pragma suppresses FLOAT-EQ and the gate passes...
    assert main(["--root", str(root)]) == 0
    capsys.readouterr()
    # ...but the project pass notices the cited test does not exist.
    assert main(["--root", str(root), "--project"]) == 1
    assert "PRAGMA-STALE" in capsys.readouterr().out


def test_project_stats_land_in_the_json_artifact(tmp_path, capsys):
    root = _repo(tmp_path, CLEAN)
    artifact = tmp_path / "out" / "report.json"
    code = main(
        [
            "--root",
            str(root),
            "--project",
            "--format",
            "json",
            "--json-output",
            str(artifact),
        ]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(artifact.read_text())
    assert payload["version"] == 3
    assert payload["project"]["modules"] == 1
