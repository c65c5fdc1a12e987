"""Rule behaviour against the fixture corpus.

One triggering and one clean snippet per rule: the bad file must
produce exactly the expected number of findings *of that rule*, and
the good file must produce no findings at all (under a config where
every rule applies everywhere -- clean means clean).
"""

from __future__ import annotations

import pytest

from repro.lint import RULES, Severity

from tests.lint.conftest import lint_fixture, permissive_config

#: rule id -> (bad fixture, exact findings, good fixture)
CORPUS = {
    "FLOAT-EQ": ("float_eq_bad.py", 6, "float_eq_good.py"),
    "FLOAT-APPROX": ("float_approx_bad.py", 4, "float_approx_good.py"),
    "RNG-LEGACY": ("rng_legacy_bad.py", 4, "rng_legacy_good.py"),
    "RNG-STDLIB": ("rng_stdlib_bad.py", 3, "rng_stdlib_good.py"),
    "RNG-SEED": ("rng_seed_bad.py", 4, "rng_seed_good.py"),
    "REDUCE-ORDER": ("reduce_order_bad.py", 5, "reduce_order_good.py"),
    "REDUCE-AXES": ("reduce_axes_bad.py", 3, "reduce_axes_good.py"),
    "AMBIENT-TIME": ("ambient_time_bad.py", 3, "ambient_time_good.py"),
    "AMBIENT-ENV": ("ambient_env_bad.py", 4, "ambient_env_good.py"),
    "AMBIENT-ID": ("ambient_id_bad.py", 2, "ambient_id_good.py"),
    "SET-ITER": ("set_iter_bad.py", 3, "set_iter_good.py"),
    "LOCK-GUARD": ("lock_guard_bad.py", 3, "lock_guard_good.py"),
    "MUT-DEFAULT": ("mut_default_bad.py", 4, "mut_default_good.py"),
    "LRU-METHOD": ("lru_method_bad.py", 2, "lru_method_good.py"),
}


def test_corpus_covers_every_registered_rule():
    from tests.lint.test_project import PROJECT_CORPUS

    assert not set(CORPUS) & set(PROJECT_CORPUS)
    assert set(CORPUS) | set(PROJECT_CORPUS) == set(RULES), (
        "every rule needs a bad+good fixture pair (and every fixture "
        "pair a registered rule)"
    )


@pytest.mark.parametrize("rule_id", sorted(CORPUS))
def test_bad_fixture_triggers_rule(rule_id):
    bad, expected, _ = CORPUS[rule_id]
    findings = lint_fixture(bad)
    hits = [f for f in findings if f.rule == rule_id]
    assert len(hits) == expected, (
        f"{bad}: expected {expected} {rule_id} findings, got "
        f"{[(f.line, f.rule) for f in findings]}"
    )
    for finding in hits:
        assert finding.path.endswith(bad)
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("rule_id", sorted(CORPUS))
def test_good_fixture_is_fully_clean(rule_id):
    _, _, good = CORPUS[rule_id]
    findings = lint_fixture(good)
    assert findings == [], (
        f"{good} should be clean under every rule, got "
        f"{[(f.rule, f.line) for f in findings]}"
    )


def test_severities_split_hazard_vs_hygiene():
    assert RULES["FLOAT-EQ"].severity is Severity.ERROR
    assert RULES["LOCK-GUARD"].severity is Severity.ERROR
    assert RULES["MUT-DEFAULT"].severity is Severity.WARNING
    assert RULES["LRU-METHOD"].severity is Severity.WARNING


def test_lock_rule_flags_closure_access():
    findings = lint_fixture("lock_guard_bad.py")
    closure_hits = [
        f
        for f in findings
        if f.rule == "LOCK-GUARD" and "closure" in (f.snippet or "")
    ]
    assert closure_hits, (
        "an access inside a nested function must count as outside the "
        "lock (the closure runs after release)"
    )


def test_environ_rule_reports_a_bare_name_once_per_read(tmp_path):
    """``environ`` imported from ``os`` is read three times here: the
    name inside the subscript and the ``.get`` call is not a fourth
    read."""
    from repro.lint import lint_file

    path = tmp_path / "mod.py"
    path.write_text(
        "from os import environ\n"
        "def f():\n"
        "    return dict(environ), environ['Y'], environ.get('Z')\n"
    )
    findings = lint_file(path, permissive_config(tmp_path))
    assert sorted(
        (f.line, f.col) for f in findings if f.rule == "AMBIENT-ENV"
    ) == [(3, 16), (3, 26), (3, 40)]


def test_scope_restricts_rules_to_configured_paths(tmp_path):
    """The same source is flagged inside a parity path and ignored
    outside it -- path scoping is what keeps the gate quiet on
    orchestration code."""
    from repro.lint import LintConfig, lint_file

    source = "def f(x):\n    return x == 1.5\n"
    parity = tmp_path / "parity" / "mod.py"
    parity.parent.mkdir()
    parity.write_text(source)
    other = tmp_path / "other" / "mod.py"
    other.parent.mkdir()
    other.write_text(source)
    config = LintConfig(
        root=tmp_path,
        exclude=[],
        scopes={"parity": ["parity/*"], "compute": [], "src": []},
    )
    assert [f.rule for f in lint_file(parity, config)] == ["FLOAT-EQ"]
    assert lint_file(other, config) == []
