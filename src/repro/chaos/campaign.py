"""The ``serving_chaos`` campaign target and its helpers.

Chaos runs ride the existing campaign engine
(:func:`repro.campaigns.engine.run_campaign`) unchanged: a
:class:`~repro.campaigns.spec.CampaignSpec` with
``target="serving_chaos"`` grids over fault presets (or raw
:class:`~repro.api.config.ChaosConfig` fields), each trial runs one
:class:`~repro.chaos.experiment.ChaosExperiment` on its own spawned
random stream, and the resulting
:class:`~repro.campaigns.report.TrialRecord` is a pure function of
``(spec, cell, trial)`` -- so chaos campaigns inherit seeding,
sharding, resume, multiprocessing with bitwise worker-count
invariance and :class:`~repro.campaigns.store.CampaignStore`
artifacts for free.
"""

from __future__ import annotations

from typing import Any

from repro.api.config import ChaosConfig
from repro.campaigns.report import OUTCOME_ORDER, CampaignReport, TrialRecord
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.targets import TrialContext
from repro.chaos.experiment import ChaosExperiment

#: Named fault loads a campaign grid can sweep with one string axis
#: (``chaos_fault``).  ``storm`` combines every fault type; ``none``
#: is the control cell that must come back ``clean``.
PRESETS: dict[str, dict[str, int]] = {
    "none": {},
    "latency_spike": {"latency_spikes": 2},
    "timeout": {"timeouts": 2},
    "batcher_crash": {"batcher_crashes": 1},
    "queue_exhaustion": {"queue_exhaustion_bursts": 1},
    "payload_corruption": {"corrupt_payloads": 3},
    "storm": {
        "latency_spikes": 1,
        "timeouts": 1,
        "batcher_crashes": 1,
        "queue_exhaustion_bursts": 1,
        "corrupt_payloads": 2,
    },
}

#: ChaosConfig fields a cell may override directly (wins over preset).
_CHAOS_FIELDS = (
    "latency_spikes",
    "latency_ms",
    "timeouts",
    "batcher_crashes",
    "queue_exhaustion_bursts",
    "burst_overflow",
    "corrupt_payloads",
    "corrupt_bits",
    "stall_timeout_s",
)

#: Per-process pipeline cache: workers build the (deterministic)
#: model + pipeline once per configuration, like the ``pipeline``
#: target's ``_MODEL_CACHE``.
_PIPELINE_CACHE: dict[tuple, Any] = {}


def _pipeline_for(architecture: str, image_size: int):
    from repro.api import PipelineConfig, build_pipeline
    from repro.models.smallcnn import small_cnn

    key = (architecture, image_size)
    if key not in _PIPELINE_CACHE:
        model = small_cnn(n_classes=8, input_size=image_size)
        config = PipelineConfig(
            architecture=architecture,
            pin_sobel=architecture == "integrated",
            name=f"chaos-{architecture}",
        )
        _PIPELINE_CACHE[key] = build_pipeline(config, model)
    return _PIPELINE_CACHE[key]


def chaos_config_for(ctx: TrialContext) -> ChaosConfig:
    """Resolve a cell's chaos load: preset layered under any direct
    ChaosConfig-field overrides."""
    preset = ctx.param("chaos_fault", "storm")
    if preset not in PRESETS:
        raise ValueError(
            f"unknown chaos_fault preset {preset!r}; "
            f"choose one of {sorted(PRESETS)}"
        )
    fields: dict[str, Any] = dict(PRESETS[preset])
    for name in _CHAOS_FIELDS:
        value = ctx.param(name, None)
        if value is not None:
            fields[name] = value
    return ChaosConfig(**fields)


def run_serving_chaos_trial(ctx: TrialContext) -> TrialRecord:
    """One seeded chaos experiment against a live PipelineServer.

    Every record field is deterministic given ``(spec, cell, trial)``:
    outcome/violations derive from the planned schedule and the
    invariant checks (which hold or fail reproducibly), and metrics
    expose only the plan -- never wall-clock tallies -- so campaign
    fingerprints stay worker-count invariant.
    """
    experiment = ChaosExperiment(
        chaos=chaos_config_for(ctx),
        n_requests=ctx.param("n_requests", 10),
        threads=ctx.param("threads", 2),
        image_size=ctx.param("image_size", 20),
        cache=ctx.param("cache", "off"),
        timeout_s=ctx.param("timeout_s", 30.0),
    )
    pipeline = _pipeline_for(
        ctx.param("architecture", "parallel"), experiment.image_size
    )
    report = experiment.run(pipeline, ctx.rng)
    observed = (
        "held" if report.invariants_hold
        else ",".join(report.violations)
    )
    return TrialRecord(
        cell=ctx.cell.index,
        trial=ctx.trial,
        outcome=report.outcome,
        expected="invariants_hold",
        observed=observed,
        faults_fired=report.plan.total_events,
        errors_detected=report.plan.disruptive_events,
        rollbacks=report.restarts,
        aborted=report.outcome == "detected_aborted",
        metrics=report.deterministic_metrics(),
    )


def chaos_campaign_spec(
    *,
    name: str = "serving-chaos",
    faults: tuple[str, ...] = tuple(sorted(PRESETS)),
    trials: int = 2,
    seed: int = 0,
    n_requests: int = 10,
    architecture: str = "parallel",
    cache: str = "off",
    shard_size: int = 4,
) -> CampaignSpec:
    """A ready-to-run chaos campaign: one grid cell per fault preset.

    The spec's ``fault`` field keeps the engine's default FaultSpec --
    the chaos target draws its schedule from the trial stream and
    ``chaos_fault`` params instead, never from ``ctx.build_fault()``.
    """
    return CampaignSpec(
        name=name,
        target="serving_chaos",
        trials=trials,
        seed=seed,
        grid={"chaos_fault": tuple(faults)},
        target_params={
            "n_requests": n_requests,
            "architecture": architecture,
            "cache": cache,
        },
        shard_size=shard_size,
    )


def chaos_summary(report: CampaignReport) -> dict:
    """The summary of a chaos campaign run: outcome counts, the trials
    whose invariants held, and the fingerprint."""
    counts = dict(report.counts)
    bad = counts.get("silent_corruption", 0) + counts.get(
        "detected_aborted", 0
    )
    return {
        "chaos_campaign": report.spec_name,
        "target": report.target,
        "spec_hash": report.spec_hash,
        "trials": report.trials,
        "invariants_held_trials": report.trials - bad,
        "outcomes": {label: counts.get(label, 0) for label in OUTCOME_ORDER},
        "fingerprint": report.fingerprint(),
    }
