"""End-to-end fault studies on the hybrid and the caging baselines.

Two experiments beyond the paper's explicit artefacts:

* :func:`run_hybrid_under_faults` -- the integrated hybrid's
  dependable path under processing-element transients: detection,
  rollback and the decision taken when the leaky bucket gives up
  (never a silent confirm).
* :func:`run_baseline_comparison` -- weight-corruption campaign
  comparing the unprotected CNN, activation-range supervision
  (ref [28]), output caging (ref [27]) and the hybrid's qualifier on
  the metric that matters for the paper's use-case: **false confirms
  of the safety class** (saying "dependable stop" when the input is
  not a stop sign or the network is corrupted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import QualifierConfig, build_qualifier
from repro.baselines import ActivationRangeGuard, OutputCage
from repro.core import Decision
from repro.data import STOP_CLASS_INDEX, render_sign
from repro.faults.injector import flip_weight_bits


# ---------------------------------------------------------------------------
# Hybrid under processing-element transients
# ---------------------------------------------------------------------------

@dataclass
class HybridFaultRow:
    fault_probability: float
    decision: str
    qualifier_matches: bool
    errors_detected: int
    rollbacks: int
    persistent_failures: int


@dataclass
class HybridFaultResult:
    rows: list[HybridFaultRow] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"{'p':>9} {'decision':<22} {'qualifier':<10} "
            f"{'errors':>7} {'rollbacks':>9} {'aborts':>7}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.fault_probability:>9.1e} {row.decision:<22} "
                f"{str(row.qualifier_matches):<10} "
                f"{row.errors_detected:>7} {row.rollbacks:>9} "
                f"{row.persistent_failures:>7}"
            )
        return "\n".join(lines)

    def never_silently_confirmed_under_abort(self) -> bool:
        """Safety invariant: an aborted dependable path never yields
        a confirmed decision."""
        return all(
            row.decision != Decision.CONFIRMED.value
            for row in self.rows
            if row.persistent_failures > 0
        )


def _pinned_model(input_size: int, rng: np.random.Generator):
    # Historical entry point; one shared implementation with the
    # campaign engine's "pipeline" target.
    from repro.campaigns.targets import pinned_stop_model

    return pinned_stop_model(input_size, rng)


def build_hybrid_fault_spec(
    probabilities: tuple[float, ...] = (0.0, 1e-5, 1e-4),
    input_size: int = 96,
    bucket_ceiling: int = 1000,
    seed: int = 0,
    trials: int = 1,
) -> "CampaignSpec":
    """The campaign spec behind :func:`run_hybrid_under_faults`.

    One grid cell per fault probability, ``trials`` full-pipeline
    inferences each -- scale ``trials`` and add ``workers`` at the
    engine call for distribution-level statistics instead of the
    historical single-shot rows.
    """
    from repro.campaigns import CampaignSpec, FaultSpec

    return CampaignSpec(
        name="hybrid-under-faults",
        target="pipeline",
        fault=FaultSpec(kind="transient", params={"probability": 0.0}),
        trials=trials,
        seed=seed,
        grid={"fault.probability": probabilities},
        target_params={
            "input_size": input_size,
            "bucket_ceiling": bucket_ceiling,
        },
    )


def run_hybrid_under_faults(
    probabilities: tuple[float, ...] = (0.0, 1e-5, 1e-4),
    input_size: int = 96,
    bucket_ceiling: int = 1000,
    seed: int = 0,
    workers: int | None = None,
) -> HybridFaultResult:
    """Integrated hybrid inference with transient PE faults injected
    into the dependable partition's arithmetic.

    A generous bucket ceiling keeps moderate fault rates inside the
    rollback regime (errors detected and recovered); tightening it
    trades availability for fail-fast behaviour, as Algorithm 3
    intends.  Runs on the campaign engine: one cell per probability,
    and the returned rows are bitwise identical for any ``workers``.
    """
    from repro.campaigns import run_campaign

    spec = build_hybrid_fault_spec(
        probabilities=probabilities,
        input_size=input_size,
        bucket_ceiling=bucket_ceiling,
        seed=seed,
    )
    report = run_campaign(spec, workers=workers, keep_records=True)
    cells = spec.cells()
    result = HybridFaultResult()
    for record in report.records:
        result.rows.append(HybridFaultRow(
            fault_probability=cells[record.cell].overrides[
                "fault.probability"
            ],
            decision=record.observed,
            qualifier_matches=bool(
                record.metrics["qualifier_matches"]
            ),
            errors_detected=record.errors_detected,
            rollbacks=record.rollbacks,
            persistent_failures=int(
                record.metrics["persistent_failures"]
            ),
        ))
    return result


# ---------------------------------------------------------------------------
# Baseline comparison under weight corruption
# ---------------------------------------------------------------------------

@dataclass
class BaselineRow:
    protection: str
    false_confirms: int
    rejected: int
    trials: int

    @property
    def false_confirm_rate(self) -> float:
        return self.false_confirms / self.trials if self.trials else 0.0


@dataclass
class BaselineComparisonResult:
    rows: list[BaselineRow] = field(default_factory=list)
    n_flips: int = 0

    def to_text(self) -> str:
        lines = [
            f"weight corruption: {self.n_flips} bit flips in conv1 "
            "per trial; non-stop inputs only",
            f"{'protection':<24} {'false confirms':>15} "
            f"{'rejected':>9} {'trials':>7}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.protection:<24} {row.false_confirms:>15} "
                f"{row.rejected:>9} {row.trials:>7}"
            )
        return "\n".join(lines)


def run_baseline_comparison(
    trained_model,
    trials: int = 60,
    n_flips: int = 80,
    bit_range: tuple[int, int] = (23, 31),
    seed: int = 0,
) -> BaselineComparisonResult:
    """False-confirm comparison under weight bit flips.

    Each trial: corrupt conv1 weights with ``n_flips`` random bit
    flips, present a random *non-stop* sign, and ask each protection
    whether it would report a dependable "stop":

    * **unprotected** -- confirm whenever argmax == stop;
    * **range-guard** (ref [28]) -- clipped inference, confirm on
      argmax == stop (clipping masks but never vetoes);
    * **output cage** (ref [27]) -- confirm on argmax == stop AND the
      output is inside the calibrated feasible region;
    * **hybrid qualifier** (this paper) -- confirm on argmax == stop
      AND the octagon qualifier accepts the input image.

    The hybrid's qualifier consults the *input*, which the weight
    corruption cannot touch, so its false-confirm count is
    structurally zero -- the comparison makes the paper's argument
    against pure-output caging concrete.

    Corruption defaults target float32 exponent bits: mantissa flips
    rarely move a trained network's argmax, while exponent flips
    produce the large deviations (including overflow to inf/NaN,
    whose argmax conventionally lands on class 0 -- the stop class)
    that hardware studies report as the dangerous case.
    """
    model = trained_model.model
    rng = np.random.default_rng(seed)

    guard = ActivationRangeGuard(model)
    guard.calibrate(trained_model.train_x[:128])
    cage = OutputCage(model)
    cage.calibrate(trained_model.train_x[:128])
    qualifier = build_qualifier(QualifierConfig())

    conv1 = model.layer("conv1")
    pristine = conv1.weight.value.copy()
    rows = {
        name: BaselineRow(name, 0, 0, trials)
        for name in ("unprotected", "range-guard", "output-cage",
                     "hybrid-qualifier")
    }
    non_stop_classes = [i for i in range(8) if i != STOP_CLASS_INDEX]
    try:
        for _ in range(trials):
            class_index = int(rng.choice(non_stop_classes))
            rotation = float(rng.uniform(-0.15, 0.15))
            cnn_view = render_sign(class_index, size=32,
                                   rotation=rotation)
            qualifier_view = render_sign(class_index, size=128,
                                         rotation=rotation)
            flip_weight_bits(conv1, n_flips, rng, bit_range=bit_range)

            with np.errstate(over="ignore", invalid="ignore"):
                logits = model.forward(cnn_view[None])
            says_stop = int(logits.argmax()) == STOP_CLASS_INDEX
            if says_stop:
                rows["unprotected"].false_confirms += 1

            with np.errstate(over="ignore", invalid="ignore"):
                guarded, _ = guard.forward(cnn_view[None])
            if int(guarded.argmax()) == STOP_CLASS_INDEX:
                rows["range-guard"].false_confirms += 1

            feasible = bool(cage.check(logits)[0])
            if says_stop and feasible:
                rows["output-cage"].false_confirms += 1
            elif says_stop:
                rows["output-cage"].rejected += 1

            if says_stop:
                verdict = qualifier.check(qualifier_view)
                if verdict.matches and verdict.reliable:
                    rows["hybrid-qualifier"].false_confirms += 1
                else:
                    rows["hybrid-qualifier"].rejected += 1

            conv1.weight.value = pristine.copy()
    finally:
        conv1.weight.value = pristine
    result = BaselineComparisonResult(
        rows=list(rows.values()), n_flips=n_flips
    )
    return result
