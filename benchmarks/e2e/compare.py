"""``python -m benchmarks.e2e compare A/ B/``: judge a change against
its parent from two directories of results JSON files.

``A`` holds the parent's runs, ``B`` the change's, each made with the
same benchmark code and settings.  For every workload and end-to-end
metric the row shows each side's median and quartiles and one label:

* ``improved`` -- the change wins at least nine tenths of the pairs
  (runs paired by seed when the seeds match, else every A run against
  every B run; ties count for neither side) and the medians differ by
  more than the parent's quartile distance;
* ``unresolved`` -- the parent's own spread (quartile distance over
  median) is wider than the metric's bound, so "unchanged" cannot be
  told apart from noise;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``unchanged`` -- otherwise.

Per-layer metrics of traced runs are listed below with their medians
and no label: they have no bound.  The exit status is 1 when any row
regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_runs(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Results by ``(workload, trace)``, ordered by seed."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        payload = json.loads(path.read_text())
        if not {"workload", "trace", "metrics"} <= set(payload):
            continue
        runs.setdefault((payload["workload"], payload["trace"]), []).append(
            payload
        )
    for results in runs.values():
        results.sort(key=lambda payload: payload["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(a_runs, b_runs, name):
    b_by_seed = {run["seed"]: run for run in b_runs}
    common = [run for run in a_runs if run["seed"] in b_by_seed]
    if common:
        return [
            (run["metrics"][name]["value"],
             b_by_seed[run["seed"]]["metrics"][name]["value"])
            for run in common
        ]
    return [
        (a["metrics"][name]["value"], b["metrics"][name]["value"])
        for a in a_runs for b in b_runs
    ]


def judge(a: list[float], b: list[float], pairs, better: str,
          bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_median, a_q3 = quartiles(a)
    _, b_median, _ = quartiles(b)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    gain = sign * (b_median - a_median)
    if wins >= 0.9 * len(pairs) and gain > a_q3 - a_q1:
        return "improved"
    if a_median and (a_q3 - a_q1) / abs(a_median) > bound:
        return "unresolved"
    if a_median and -gain / abs(a_median) > bound:
        return "regressed"
    return "unchanged"


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:11.4g} [{q1:.4g}, {q3:.4g}]"


def compare(a_dir: Path, b_dir: Path, spec: dict) -> list[dict]:
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        a_list = a_runs.get((workload, 0), [])
        b_list = b_runs.get((workload, 0), [])
        if not a_list or not b_list:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_list]
            b = [run["metrics"][name]["value"] for run in b_list]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": a,
                "b": b,
                "label": judge(a, b, _pairs(a_list, b_list, name),
                               metric["better"], metric["bound"]),
            })
    return rows


def compare_main(argv: list[str], spec: dict) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    rows = compare(args.parent, args.change, spec)
    if not rows:
        print("no untraced results for a common workload")
        return 2
    print(f"{'workload':18} {'metric':18} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change':>8}  label")
    for row in rows:
        a_median = quartiles(row["a"])[1]
        delta = (quartiles(row["b"])[1] - a_median) / a_median
        print(f"{row['workload']:18} {row['metric']:18} "
              f"{_cell(row['a']):>34} {_cell(row['b']):>34} "
              f"{delta:+8.1%}  {row['label']}")

    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)
    for workload in (w["name"] for w in spec["workloads"]):
        a_list = a_runs.get((workload, 1), [])
        b_list = b_runs.get((workload, 1), [])
        if not a_list or not b_list:
            continue
        print(f"\nper-layer, {workload} (medians of traced runs)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in a_list)
            b = statistics.median(r["metrics"][name]["value"] for r in b_list)
            print(f"  {name:32} {a:12.4g} -> {b:12.4g} {metric['unit']}")
    return 1 if any(row["label"] == "regressed" for row in rows) else 0
