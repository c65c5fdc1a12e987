#!/usr/bin/env python
"""Run seeded serving-chaos campaigns from the command line.

Drives the ``serving_chaos`` campaign target (:mod:`repro.chaos`)
through the standard engine, so runs are seeded, sharded, resumable
and bitwise worker-count invariant.  Exits non-zero if any trial's
serving invariants failed (``silent_corruption``) or aborted
(``detected_aborted``).  Examples:

    # The full preset sweep, two trials each, serially:
    scripts/chaos.py run

    # One fault type, stored as resumable artifacts + a JSON summary:
    scripts/chaos.py run --fault batcher_crash --trials 5 \\
        --artifacts artifacts/chaos --summary-json chaos_summary.json

    # Parallel workers (identical fingerprint, by construction):
    scripts/chaos.py run --workers 4 --json

See docs/chaos.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Allow running straight from a checkout: scripts/chaos.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaigns.engine import run_campaign  # noqa: E402
from repro.chaos.campaign import (  # noqa: E402
    PRESETS,
    chaos_campaign_spec,
    chaos_summary,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaos",
        description="Seeded service-level chaos campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="run a serving_chaos campaign and check invariants"
    )
    run.add_argument(
        "--fault",
        default="all",
        choices=("all", *sorted(PRESETS)),
        help="fault preset to sweep ('all' grids every preset)",
    )
    run.add_argument(
        "--trials", type=int, default=2, help="trials per grid cell"
    )
    run.add_argument("--seed", type=int, default=0, help="root seed")
    run.add_argument(
        "--requests", type=int, default=10,
        help="base requests per experiment",
    )
    run.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes (default: serial)",
    )
    run.add_argument(
        "--architecture", default="parallel",
        choices=("parallel", "integrated"),
    )
    run.add_argument(
        "--cache", default="off", choices=("off", "lru"),
        help="response-cache mode the experiments serve under",
    )
    run.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="CampaignStore directory (spec/shards/report; resumable)",
    )
    run.add_argument(
        "--summary-json", default=None, metavar="PATH",
        help="write the chaos summary here as JSON",
    )
    run.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON instead of a table",
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    faults = (
        tuple(sorted(PRESETS)) if args.fault == "all" else (args.fault,)
    )
    spec = chaos_campaign_spec(
        faults=faults,
        trials=args.trials,
        seed=args.seed,
        n_requests=args.requests,
        architecture=args.architecture,
        cache=args.cache,
    )
    report = run_campaign(
        spec,
        workers=args.workers,
        artifacts_dir=args.artifacts,
        overwrite=False,
    )
    summary = chaos_summary(report)
    if args.summary_json:
        path = Path(args.summary_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"chaos campaign : {summary['chaos_campaign']}")
        print(f"spec hash      : {summary['spec_hash'][:16]}...")
        print(f"fingerprint    : {summary['fingerprint'][:16]}...")
        print(
            f"trials         : {summary['trials']} "
            f"({summary['invariants_held_trials']} held invariants)"
        )
        for label, count in summary["outcomes"].items():
            print(f"  {label:<20s} {count}")
    bad = summary["trials"] - summary["invariants_held_trials"]
    if bad:
        print(
            f"FAIL: {bad} trial(s) violated serving invariants",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
