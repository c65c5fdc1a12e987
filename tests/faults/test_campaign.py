"""Outcome classification, coverage and SDC rates, and operator
campaigns on the ``reliable_conv`` target."""

from __future__ import annotations

import pytest

from repro.campaigns import (
    CampaignReport,
    CampaignSpec,
    CellReport,
    FaultSpec,
    TrialRecord,
    run_campaign,
)
from repro.faults.campaign import Outcome, classify_outcome

TRANSIENT = FaultSpec(kind="transient", params={"probability": 0.01})
PERMANENT = FaultSpec(kind="permanent", params={"bit": 28})


def operator_campaign(
    fault: FaultSpec, operator_kind: str, trials: int, seed: int
) -> CampaignReport:
    return run_campaign(
        CampaignSpec(
            target="reliable_conv",
            fault=fault,
            trials=trials,
            seed=seed,
            target_params={"operator_kind": operator_kind},
        )
    )


def cell_of(*outcomes: Outcome, index: int = 0) -> CellReport:
    cell = CellReport(index=index)
    for trial, outcome in enumerate(outcomes):
        cell.record(
            TrialRecord(
                cell=index,
                trial=trial,
                outcome=outcome.value,
                expected="exact",
                observed="exact",
            )
        )
    return cell


class TestClassification:
    def test_clean(self):
        outcome = classify_outcome(
            1.0, 1.0, fault_fired=False, errors_detected=0, aborted=False
        )
        assert outcome is Outcome.CLEAN

    def test_masked(self):
        outcome = classify_outcome(
            1.0, 1.0, fault_fired=True, errors_detected=0, aborted=False
        )
        assert outcome is Outcome.MASKED

    def test_detected_recovered(self):
        outcome = classify_outcome(
            1.0, 1.0, fault_fired=True, errors_detected=3, aborted=False
        )
        assert outcome is Outcome.DETECTED_RECOVERED

    def test_aborted(self):
        outcome = classify_outcome(
            1.0, None, fault_fired=True, errors_detected=5, aborted=True
        )
        assert outcome is Outcome.DETECTED_ABORTED

    def test_silent_corruption(self):
        outcome = classify_outcome(
            1.0, 2.0, fault_fired=True, errors_detected=0, aborted=False
        )
        assert outcome is Outcome.SILENT_CORRUPTION

    def test_wrong_value_despite_detection_is_sdc(self):
        outcome = classify_outcome(
            1.0, 2.0, fault_fired=True, errors_detected=1, aborted=False
        )
        assert outcome is Outcome.SILENT_CORRUPTION

    def test_missing_value_requires_abort(self):
        with pytest.raises(ValueError):
            classify_outcome(
                1.0, None, fault_fired=True,
                errors_detected=0, aborted=False,
            )


class TestRates:
    @pytest.mark.parametrize("outcomes, coverage, sdc_rate", [
        (
            (
                Outcome.CLEAN,
                Outcome.SILENT_CORRUPTION,
                Outcome.DETECTED_RECOVERED,
            ),
            0.5,
            0.5,
        ),
        # No fault fired: full coverage.
        ((Outcome.CLEAN,), 1.0, 0.0),
        # Masked and aborted trials end in a safe state.
        ((Outcome.MASKED, Outcome.DETECTED_ABORTED), 1.0, 0.0),
    ])
    def test_rates(self, outcomes, coverage, sdc_rate):
        cell = cell_of(*outcomes)
        assert cell.trials == len(outcomes)
        assert cell.detection_coverage == coverage
        assert cell.silent_corruption_rate == sdc_rate

    def test_empty_campaign_has_full_coverage(self):
        report = CampaignReport(
            spec_name="empty",
            spec_hash="",
            target="reliable_conv",
            total_trials_expected=0,
        )
        assert report.trials == 0
        assert report.detection_coverage == 1.0
        assert report.silent_corruption_rate == 0.0

    def test_campaign_rates_use_the_cell_formula_over_summed_counts(self):
        first = (Outcome.CLEAN, Outcome.MASKED, Outcome.SILENT_CORRUPTION)
        second = (
            Outcome.DETECTED_ABORTED,
            Outcome.DETECTED_RECOVERED,
            Outcome.DETECTED_RECOVERED,
            Outcome.SILENT_CORRUPTION,
        )
        report = CampaignReport(
            spec_name="two-cells",
            spec_hash="",
            target="reliable_conv",
            total_trials_expected=7,
            cells={0: cell_of(*first), 1: cell_of(*second, index=1)},
        )
        summed = cell_of(*first, *second)
        assert report.counts == summed.counts
        # 4 safe and 2 silent of 6 faulted trials, not the means of
        # the cells' rates (coverage 0.625, SDC 0.375).
        assert report.detection_coverage == summed.detection_coverage
        assert report.detection_coverage == 4 / 6
        assert report.silent_corruption_rate == summed.silent_corruption_rate
        assert report.silent_corruption_rate == 2 / 6


class TestOperatorCampaigns:
    def test_plain_is_fully_vulnerable(self):
        report = operator_campaign(TRANSIENT, "plain", trials=60, seed=1)
        faulted = report.trials - report.counts[Outcome.CLEAN.value]
        assert faulted > 0
        assert report.counts[Outcome.SILENT_CORRUPTION.value] == faulted

    def test_dmr_full_coverage_on_transients(self):
        report = operator_campaign(TRANSIENT, "dmr", trials=60, seed=1)
        assert report.counts[Outcome.SILENT_CORRUPTION.value] == 0
        assert report.detection_coverage == 1.0
        assert report.counts[Outcome.DETECTED_RECOVERED.value] > 0

    def test_tmr_masks_transients(self):
        report = operator_campaign(TRANSIENT, "tmr", trials=60, seed=1)
        assert report.counts[Outcome.SILENT_CORRUPTION.value] == 0
        assert report.counts[Outcome.MASKED.value] > 0

    def test_permanent_faults_defeat_temporal_redundancy(self):
        report = operator_campaign(PERMANENT, "dmr", trials=25, seed=2)
        # Common-mode: every trial silently corrupted.
        assert report.counts[Outcome.SILENT_CORRUPTION.value] == 25
        assert report.detection_coverage == 0.0

    def test_campaign_is_seeded(self):
        a = operator_campaign(TRANSIENT, "dmr", trials=40, seed=7)
        b = operator_campaign(TRANSIENT, "dmr", trials=40, seed=7)
        assert a.counts == b.counts
        assert a.cell(0).errors_detected == b.cell(0).errors_detected

    def test_dmr_transient_counts_are_pinned(self):
        # Each trial's stream depends only on (seed, cell, trial).
        report = operator_campaign(TRANSIENT, "dmr", trials=40, seed=7)
        assert report.counts == {
            "clean": 12,
            "masked": 0,
            "detected_recovered": 27,
            "detected_aborted": 1,
            "silent_corruption": 0,
        }
        assert report.cell(0).errors_detected == 46
