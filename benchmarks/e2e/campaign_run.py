"""The fault-campaign workload: offline ``run_campaign`` on the
``pipeline`` target with transient PE faults.

The timed phase runs in rounds of back-to-back mini-campaigns -- each
a complete, fingerprinted campaign over the fault-probability grid --
until the run's seconds are spent.  Campaign ``i`` of a run uses spec
seed ``seed * 1000 + i``; trials are timed one by one through the
engine's ``on_shard`` callback (one trial per shard).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext

import numpy as np

from benchmarks.e2e.report import (
    SERVING_METRICS,
    RunOutcome,
    end_to_end,
    layer_metrics,
)
from benchmarks.e2e.trace import Probes, Tracer

#: Three fault rates a decade apart in total: rare, moderate and heavy
#: repair.  Their trial costs do not overlap, so the median trial falls
#: in the middle cell and the 90th percentile in the top one.
PROBABILITIES = (1e-4, 3e-4, 1e-3)
TRIALS_PER_CELL = 4
TARGET_PARAMS = {
    "input_size": 48,
    "bucket_ceiling": 1000,
    "engine": "vectorized",
}
SEEDS_PER_RUN = 1000


def campaign_spec(seed: int, trials: int = TRIALS_PER_CELL,
                  probabilities=PROBABILITIES):
    from repro.campaigns import CampaignSpec, FaultSpec

    return CampaignSpec(
        name="e2e-fault-campaign",
        target="pipeline",
        fault=FaultSpec(kind="transient",
                        params={"probability": PROBABILITIES[0]}),
        trials=trials,
        seed=seed,
        grid={"fault.probability": probabilities},
        target_params=TARGET_PARAMS,
        shard_size=1,
    )


def _timed_campaign(spec):
    """Run one campaign; returns the report and per-trial seconds."""
    from repro.campaigns import run_campaign

    durations = []
    mark = [time.perf_counter()]

    def on_shard(shard, done, total) -> None:
        now = time.perf_counter()
        durations.append(now - mark[0])
        mark[0] = now

    report = run_campaign(spec, on_shard=on_shard, keep_records=True)
    return report, durations


def setup(workload_name: str, seed: int, quick: bool) -> None:
    """A one-trial warm-up campaign: builds the target's model and
    golden decision, which the target caches per process.  Its spec
    seed is outside the range the timed campaigns use."""
    del workload_name, quick
    _timed_campaign(campaign_spec(
        seed * SEEDS_PER_RUN + SEEDS_PER_RUN - 1, 1, PROBABILITIES[:1]
    ))


def run(workload_name, seed, plan, trace, log) -> RunOutcome:
    setup(workload_name, seed, plan.quick)
    first_seed = seed * SEEDS_PER_RUN

    tracer = Tracer() if trace else None
    reports = []
    # One (trial milliseconds, (trials, seconds)) entry per round.
    rounds = []
    with Probes(tracer) if trace else nullcontext():
        for _ in range(plan.campaign_rounds):
            round_start = time.perf_counter()
            round_end = round_start + plan.seconds / plan.campaign_rounds
            durations = []
            trials = 0
            while not durations or time.perf_counter() < round_end:
                report, trial_seconds = _timed_campaign(
                    campaign_spec(first_seed + len(reports))
                )
                reports.append(report)
                durations.extend(trial_seconds)
                trials += report.trials
            rounds.append((
                1e3 * np.asarray(durations),
                (trials, time.perf_counter() - round_start),
            ))

    # -- correctness: complete reports, and an untraced re-run
    # reproduces a campaign's fingerprint bit for bit.
    problems = []
    check_started = time.perf_counter()
    for report in reports:
        if not report.complete or sum(report.counts.values()) != report.trials:
            problems.append(f"incomplete campaign {report.spec_hash[:12]}")
    replay = int(np.random.default_rng(seed).integers(len(reports)))
    again, _ = _timed_campaign(campaign_spec(first_seed + replay))
    if again.fingerprint() != reports[replay].fingerprint():
        problems.append(f"campaign {replay} did not reproduce")
    check_s = time.perf_counter() - check_started
    for problem in problems:
        log(f"check failed: {problem}")

    counts = {label: 0 for label in reports[0].counts}
    fired = 0
    for report in reports:
        for label, count in report.counts.items():
            counts[label] += count
        fired += sum(record.faults_fired > 0 for record in report.records)
    detected = counts["detected_recovered"] + counts["detected_aborted"]
    total_trials = sum(report.trials for report in reports)
    fingerprints = hashlib.sha256(
        "".join(report.fingerprint() for report in reports).encode()
    ).hexdigest()
    log(f"campaigns {len(reports)} trials {total_trials} "
        f"fingerprint {fingerprints[:16]} outcomes {counts}")
    log(f"phase campaign: sent {total_trials} succeeded {total_trials} "
        "failed 0")

    e2e = end_to_end([ms for ms, _ in rounds], [rate for _, rate in rounds])
    details = {
        "probabilities": list(PROBABILITIES),
        "trials_per_cell": TRIALS_PER_CELL,
        "target_params": TARGET_PARAMS,
        "campaigns": len(reports),
        "trials": total_trials,
        "first_fingerprint": reports[0].fingerprint(),
        "first_outcomes": reports[0].counts,
        "fingerprints_digest": fingerprints,
        "outcomes": counts,
        "silent_corruptions": counts["silent_corruption"],
        "detected_frac": detected / fired if fired else 1.0,
        "trials_with_faults": fired,
        "replayed_campaign": replay,
        "round_trials_per_s": [done / wall for _, (done, wall) in rounds],
        "check_s": check_s,
        "phases": {"campaign": {"sent": total_trials,
                                "succeeded": total_trials, "failed": 0}},
    }
    layers = {}
    if trace:
        units = [(unit, unit.end) for unit in tracer.units()]
        layers = layer_metrics(tracer.spans, units)
        # No serving layer runs here.
        layers.update(dict.fromkeys(SERVING_METRICS, 0.0))
        layers["trace_overhead_frac"] = tracer.overhead(units)
    return RunOutcome(
        correct=not problems,
        attempted=total_trials,
        failed=0,
        e2e=e2e,
        layers=layers,
        details=details,
        tracer=tracer,
    )
