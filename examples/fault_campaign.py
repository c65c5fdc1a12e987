#!/usr/bin/env python
"""Fault-injection campaign: what does the reliability guarantee buy?

Sweeps per-operation fault probability across protection levels and
prints coverage / silent-data-corruption tables, then shows the
analytic guarantee model's predictions for the same configurations so
measurement and model can be compared side by side.

Run:  python examples/fault_campaign.py
"""

from __future__ import annotations

from repro.campaigns import CampaignSpec, FaultSpec, run_campaign
from repro.core.guarantee import (
    bucket_overflow_probability,
    dmr_residual_risk,
    plain_sdc_probability,
)
from repro.workflows import run_bucket_dynamics, run_coverage_study


def main() -> None:
    print("=== measured: operator-level campaigns ===")
    study = run_coverage_study(
        fault_kinds=("transient", "intermittent", "permanent"),
        probabilities=(1e-3, 1e-2),
        runs=200,
        seed=0,
    )
    print(study.to_text())

    print("\n=== the common-mode lesson ===")
    permanent_dmr = run_campaign(CampaignSpec(
        target="reliable_conv",
        fault=FaultSpec(kind="permanent", params={"bit": 28}),
        trials=50,
        seed=1,
        target_params={"operator_kind": "dmr"},
    ))
    counts = " ".join(
        f"{label}={count}" for label, count in permanent_dmr.counts.items()
    )
    print(f"permanent fault under DMR: trials={permanent_dmr.trials} "
          f"{counts} coverage={permanent_dmr.detection_coverage:.3f} "
          f"sdc_rate={permanent_dmr.silent_corruption_rate:.3f}")
    print("-> temporal redundancy agrees with its own stuck-at fault;")
    print("   only spatial/diverse redundancy can uncover it "
          "(paper Section II.B).")

    print("\n=== analytic model for the same regime ===")
    n_ops = 2_000
    for p in (1e-3, 1e-2):
        plain = plain_sdc_probability(p, n_ops)
        dmr = dmr_residual_risk(p, n_ops)
        print(f"p={p:.0e}, n={n_ops}: "
              f"plain SDC={plain:.3e}  DMR residual={dmr:.3e}  "
              f"improvement={plain / max(dmr, 1e-300):.1e}x")

    print("\n=== availability: when does the bucket abort? ===")
    for p_detect in (1e-3, 1e-2, 5e-2):
        prob = bucket_overflow_probability(p_detect, n_ops)
        print(f"detected-error rate {p_detect:.0e} over {n_ops} ops "
              f"-> abort probability {prob:.3e}")

    print("\n=== leaky-bucket dynamics (Algorithm 3 semantics) ===")
    print(run_bucket_dynamics().to_text())


if __name__ == "__main__":
    main()
