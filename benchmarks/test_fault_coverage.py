"""E9 -- fault-injection coverage of the protection levels.

Shape to verify: plain operators have zero coverage (every fired
fault is silent corruption), DMR detects-and-recovers transients with
full coverage, TMR masks them, and permanent stuck-at faults defeat
*all* temporal redundancy (the common-mode blind spot that motivates
the paper's interest in spatial/diverse redundancy).
"""

from __future__ import annotations

from repro.campaigns import CampaignSpec, FaultSpec, run_campaign
from repro.workflows import run_bucket_dynamics, run_coverage_study


def transient_campaign(operator_kind: str) -> CampaignSpec:
    """100 single-element trials under p = 0.01 transients."""
    return CampaignSpec(
        target="reliable_conv",
        fault=FaultSpec(kind="transient", params={"probability": 0.01}),
        trials=100,
        seed=1,
        target_params={"operator_kind": operator_kind},
    )


def test_coverage_report():
    result = run_coverage_study(runs=150, seed=0)
    print()
    print(result.to_text())
    rows = {(r.fault_kind, r.operator_kind): r for r in result.rows}
    assert rows[("transient", "plain")].coverage == 0.0
    assert rows[("transient", "dmr")].coverage == 1.0
    assert rows[("permanent", "dmr")].sdc_rate == 1.0


def test_bucket_dynamics_report():
    """E7 -- the leaky-bucket survive/abort boundary."""
    result = run_bucket_dynamics()
    print()
    print(result.to_text())
    factor2 = {
        pattern: overflowed
        for factor, _, pattern, overflowed in result.rows
        if factor == 2
    }
    assert factor2["ssssssEssssss"] is False
    assert factor2["ssssssEEssssss"] is True


def test_benchmark_dmr_campaign(benchmark):
    result = benchmark.pedantic(
        run_campaign, args=(transient_campaign("dmr"),),
        rounds=1, iterations=1,
    )
    assert result.detection_coverage == 1.0


def test_benchmark_tmr_campaign(benchmark):
    result = benchmark.pedantic(
        run_campaign, args=(transient_campaign("tmr"),),
        rounds=1, iterations=1,
    )
    assert result.silent_corruption_rate == 0.0
