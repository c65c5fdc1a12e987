"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e --workload NAME --seed N [--seconds S]
[--trace [0|1]] [--out DIR] [--quick]`` runs one workload in this
process and prints every metric ``BENCHMARK.json`` names for the mode
(end-to-end untraced, per-layer traced), one ``metric <name> <value>
<unit>`` line each, then a JSON summary as the last line.  It exits 1
when an output check fails.

``python -m benchmarks.e2e compare A/ B/`` compares two directories of
results (see :mod:`benchmarks.e2e.compare`).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SPEC_PATH = REPO / "BENCHMARK.json"
DEFAULT_OUT = REPO / "benchmarks" / "artifacts" / "e2e"
SETUP_TIMEOUT_S = 120


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


@dataclass(frozen=True)
class Plan:
    """How one run spends its time."""

    seconds: float
    quick: bool
    #: Cold set-ups (child processes) per untraced run; ``setup_s`` is
    #: their median.
    setups: int
    #: Unmeasured warm-up round at the start of every serving phase.
    warmup_s: float
    open_rounds: int
    open_round_s: float
    #: Capacity rounds; trace runs alternate untraced and traced ones.
    capacity_rounds: int
    capacity_round_s: float
    #: Rounds of the fault-campaign workload.
    campaign_rounds: int
    #: Frames in the serial ``infer()`` parity reference.
    reference_frames: int


#: Share of a serving run's seconds spent in the open-loop phase (the
#: rest goes to the capacity phase).
OPEN_LOOP_SHARE = 0.6


def make_plan(seconds: float, quick: bool) -> Plan:
    open_rounds = 2 if quick else 4
    capacity_rounds = 2 if quick else 6
    return Plan(
        seconds=seconds,
        quick=quick,
        setups=1 if quick else 3,
        warmup_s=0.25 if quick else 0.5,
        open_rounds=open_rounds,
        open_round_s=seconds * OPEN_LOOP_SHARE / open_rounds,
        capacity_rounds=capacity_rounds,
        capacity_round_s=seconds * (1 - OPEN_LOOP_SHARE) / capacity_rounds,
        campaign_rounds=2 if quick else 4,
        reference_frames=48 if quick else 512,
    )


def _module(workload: str):
    """The module that runs a workload: ``setup()`` and ``run()``."""
    from benchmarks.e2e import campaign_run, serving_run

    return serving_run if workload in serving_run.WORKLOADS else campaign_run


def cold_setup_seconds(args) -> float:
    """Wall time of one cold set-up: a fresh interpreter that imports
    the program, runs the workload's ``setup()`` and exits."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ] + (["--quick"] if args.quick else [])
    started = time.perf_counter()
    subprocess.run(command, cwd=REPO, check=True, capture_output=True,
                   timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - started


def _log(message: str) -> None:
    print(message, flush=True)


def run_main(argv: list[str], process_start: float | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--quick", action="store_true",
        help="small corpora and one set-up, for the harness self-test",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="run the workload's set-up and exit (one cold set-up)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.perf_counter()
    import repro.api  # noqa: F401 -- fail before printing anything

    module = _module(args.workload)
    if args.setup_only:
        module.setup(args.workload, args.seed, args.quick)
        return 0
    trace = bool(args.trace)
    plan = make_plan(args.seconds, args.quick)
    _log(f"workload {args.workload} seed {args.seed} seconds "
         f"{args.seconds:g} trace {int(trace)}")
    # setup_s is an end-to-end metric, so traced runs skip it.
    setups = [] if trace else [
        cold_setup_seconds(args) for _ in range(plan.setups)
    ]
    outcome = module.run(args.workload, args.seed, plan, trace, _log)
    outcome.details["setup_s_each"] = setups
    if setups:
        outcome.e2e["setup_s"] = statistics.median(setups)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = outcome.layers if trace else outcome.e2e
    metrics = {}
    for metric in wanted:
        value = float(source[metric["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"{metric['name']} is not finite: {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        _log(f"metric {metric['name']} {value!r} {metric['unit']}")
    extra = {k: v for k, v in source.items() if k not in metrics}
    summary = {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    _write_results(args, plan, outcome, summary, extra, process_start,
                   started)
    print(json.dumps(summary), flush=True)
    return 0 if outcome.correct else 1


def _write_results(args, plan, outcome, summary, extra, process_start,
                   started) -> None:
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(bool(args.trace))}"
    details = dict(outcome.details)
    if process_start is not None:
        details["import_s"] = started - process_start
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(bool(args.trace)),
        "plan": asdict(plan),
        **summary,
        "other_metrics": extra,
        "details": details,
    }
    (args.out / f"{stem}.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    if outcome.tracer is not None:
        (args.out / f"{stem}.spans.json").write_text(json.dumps({
            "columns": ["id", "name", "start_us", "end_us", "parent",
                        "unit"],
            "spans": outcome.tracer.export(started),
        }, separators=(",", ":")) + "\n")


def main(argv: list[str], process_start: float | None = None) -> int:
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import compare_main

        return compare_main(argv[1:], load_spec())
    return run_main(argv, process_start)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
