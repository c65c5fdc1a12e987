"""Self-test of the end-to-end benchmark harness, on ``--quick`` runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``
(about 20 s).  Every workload runs once untraced and once traced with
the same seed, in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import cli, trace
from benchmarks.e2e.compare import compare, judge

SPEC = cli.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5
SECONDS = 0.8


@pytest.fixture(scope="module")
def originals():
    return trace.probe_targets()


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory, originals):
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for workload in WORKLOADS:
        for traced in (0, 1):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([
                    "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(SECONDS), "--trace", str(traced),
                    "--out", str(out), "--quick",
                ])
            stem = f"{workload}-seed{SEED}-trace{traced}"
            runs[workload, traced] = {
                "code": code,
                "stdout": stdout.getvalue(),
                "results": json.loads((out / f"{stem}.json").read_text()),
                "spans": out / f"{stem}.spans.json",
            }
    return out, runs


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(quick_runs, workload, traced):
    run = quick_runs[1][workload, traced]
    assert run["code"] == 0, run["stdout"]
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    lines = run["stdout"].strip().splitlines()
    printed = {
        line.split()[1]: line.split()[3]
        for line in lines if line.startswith("metric ")
    }
    assert printed == {m["name"]: m["unit"] for m in wanted}
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in summary["metrics"].items()
    } == {m["name"]: m["unit"] for m in wanted}
    if not traced:
        assert all(
            metric["value"] > 0 for metric in summary["metrics"].values()
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs_and_outcomes(quick_runs, workload):
    """Untraced and traced runs of one seed see identical inputs and
    produce identical outcomes -- tracing changes no bits."""
    untraced = quick_runs[1][workload, 0]["results"]["details"]
    traced = quick_runs[1][workload, 1]["results"]["details"]
    if workload == "fault-campaign":
        keys = ("first_fingerprint", "first_outcomes")
    else:
        keys = ("corpus_digest", "schedule_digest", "reference_decision_mix")
    for key in keys:
        assert untraced[key] == traced[key], key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_inside_their_parents(quick_runs, workload):
    payload = json.loads(quick_runs[1][workload, 1]["spans"].read_text())
    rows = {row[0]: row for row in payload["spans"]}
    assert rows
    child_time = dict.fromkeys(rows, 0.0)
    tolerance_us = 0.2  # exported times are rounded to 0.1 us
    for _, name, start, end, parent, unit in rows.values():
        assert end >= start, name
        root = rows[unit]
        assert root[4] is None and root[1] in trace.UNIT_ROOTS, name
        if parent is not None:
            _, parent_name, parent_start, parent_end, _, _ = rows[parent]
            assert start >= parent_start - tolerance_us, (name, parent_name)
            assert end <= parent_end + tolerance_us, (name, parent_name)
            child_time[parent] += end - start
    for index, (_, name, start, end, _, _) in rows.items():
        assert end - start - child_time[index] >= -tolerance_us, name


def test_tracing_wrappers_are_uninstalled(quick_runs, originals):
    after = trace.probe_targets()
    assert len(after) == len(originals)
    for (owner, attr, before), (_, _, now) in zip(originals, after):
        assert now is before, f"{owner!r}.{attr} left wrapped"


def test_compare_against_itself_is_unchanged(quick_runs):
    rows = compare(quick_runs[0], quick_runs[0], SPEC)
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert {row["label"] for row in rows} == {"unchanged"}


@pytest.mark.parametrize("a, b, better, label", [
    ([10, 10.2, 9.9, 10.1], [8, 8.1, 7.9, 8.2], "lower", "improved"),
    ([10, 10.2, 9.9, 10.1], [10.1, 10, 10.2, 9.9], "lower", "unchanged"),
    ([10, 10.2, 9.9, 10.1], [13, 13.1, 12.9, 13.2], "lower", "regressed"),
    ([10, 10.2, 9.9, 10.1], [13, 13.1, 12.9, 13.2], "higher", "improved"),
    ([6, 14, 8, 12], [11, 9, 13, 7], "lower", "unresolved"),
])
def test_judge_labels(a, b, better, label):
    assert judge(a, b, list(zip(a, b)), better, 0.1) == label


def test_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's own
    files cannot run the benchmark: exit non-zero, print no result."""
    shutil.copy(cli.SPEC_PATH, tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            cli.REPO / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
