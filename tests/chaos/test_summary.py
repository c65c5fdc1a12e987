"""The chaos summary and the ``scripts/chaos.py`` command that prints it.

:func:`~repro.chaos.campaign.chaos_summary` is the one record a chaos
run leaves: ``scripts/chaos.py run`` prints it (or writes it with
``--summary-json``) and exits non-zero when any trial broke a serving
invariant, which is what makes the CI chaos step a gate.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.campaigns.engine import run_campaign
from repro.campaigns.report import OUTCOME_ORDER
from repro.chaos.campaign import chaos_campaign_spec, chaos_summary

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "chaos.py"

SMOKE_ARGS = ("--fault", "timeout", "--trials", "1", "--requests", "6")


@pytest.fixture(scope="module")
def chaos_cli():
    spec = importlib.util.spec_from_file_location("chaos_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke_run():
    spec = chaos_campaign_spec(
        faults=("none", "timeout"), trials=1, seed=5, n_requests=6
    )
    return spec, run_campaign(spec, workers=1)


def test_summary_identifies_spec_and_run(smoke_run):
    spec, report = smoke_run
    summary = chaos_summary(report)
    assert summary["chaos_campaign"] == spec.name
    assert summary["target"] == "serving_chaos"
    assert summary["spec_hash"] == report.spec_hash
    assert summary["fingerprint"] == report.fingerprint()
    assert len(summary["fingerprint"]) == 64
    int(summary["fingerprint"], 16)


def test_outcome_table_lists_every_outcome_once(smoke_run):
    _, report = smoke_run
    summary = chaos_summary(report)
    assert list(summary["outcomes"]) == list(OUTCOME_ORDER)
    assert all(
        isinstance(count, int) and count >= 0
        for count in summary["outcomes"].values()
    )
    assert sum(summary["outcomes"].values()) == summary["trials"] == 2
    assert summary["invariants_held_trials"] == 2
    assert summary["outcomes"]["silent_corruption"] == 0


def test_summary_is_plain_json(smoke_run):
    _, report = smoke_run
    summary = chaos_summary(report)
    assert json.loads(json.dumps(summary)) == summary


def _report_with_counts(trials: int, counts: dict) -> SimpleNamespace:
    return SimpleNamespace(
        spec_name="serving-chaos",
        target="serving_chaos",
        spec_hash="b" * 64,
        trials=trials,
        counts=counts,
        fingerprint=lambda: "c" * 64,
    )


def test_invariants_held_excludes_silent_and_aborted_trials():
    report = _report_with_counts(
        10, {"clean": 3, "silent_corruption": 1, "detected_aborted": 2,
             "detected_recovered": 4}
    )
    summary = chaos_summary(report)
    assert summary["invariants_held_trials"] == 7
    assert summary["outcomes"] == {
        "clean": 3,
        "masked": 0,
        "detected_recovered": 4,
        "detected_aborted": 2,
        "silent_corruption": 1,
    }


def test_cli_summary_json_matches_printed_summary(
    chaos_cli, tmp_path, capsys
):
    path = tmp_path / "out" / "chaos_summary.json"
    code = chaos_cli.main(
        ["run", *SMOKE_ARGS, "--summary-json", str(path), "--json"]
    )
    assert code == 0
    written = json.loads(path.read_text())
    assert json.loads(capsys.readouterr().out) == written
    spec = chaos_campaign_spec(faults=("timeout",), trials=1, n_requests=6)
    assert written == chaos_summary(run_campaign(spec, workers=1))


def test_cli_table_names_every_outcome(chaos_cli, capsys):
    assert chaos_cli.main(["run", *SMOKE_ARGS]) == 0
    out = capsys.readouterr().out
    assert "trials         : 1 (1 held invariants)" in out
    for label in OUTCOME_ORDER:
        assert label in out


def test_cli_exits_nonzero_when_invariants_fail(
    chaos_cli, monkeypatch, capsys
):
    broken = _report_with_counts(
        2, {"clean": 1, "silent_corruption": 1}
    )
    monkeypatch.setattr(chaos_cli, "run_campaign", lambda spec, **_: broken)
    assert chaos_cli.main(["run", *SMOKE_ARGS, "--json"]) == 1
    assert "1 trial(s) violated serving invariants" in capsys.readouterr().err
