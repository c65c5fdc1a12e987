"""Analytic reliability model: the "guarantee" behind the title.

The hybrid's safety argument is structural: the *confirmed* decision
for the safety class depends only on (a) arithmetic executed through
qualified redundant operators with rollback and (b) the deterministic
qualifier.  The stock qualifier is a pure function of its input that
no fault model reaches, so one execution stands for all; a subclass,
whose hooks may not repeat themselves, runs twice with rollback.  This
module quantifies the residual risk of that path and the cost saved
against whole-network duplication.

Model assumptions (stated, so they can be challenged):

* per-operation fault probability ``p`` -- each scalar multiply or
  add is independently corrupted with probability ``p`` (transient
  SEU model);
* a corrupted result is wrong (value-preserving flips are counted as
  faults that happen to be harmless, making every figure here an
  upper bound);
* two independently corrupted executions collide on the same wrong
  value with probability ``collision`` (for uniform single-bit flips
  in a 32-bit word this is 1/32: both flips must pick the same bit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import HybridPartition
from repro.nn.network import Sequential
from repro.reliable.operators import operator_masks


def plain_sdc_probability(p: float, n_ops: int) -> float:
    """P(at least one undetected corrupt op) without any protection.

    Every fault is silent for Algorithm 1 (its qualifier is a preset
    True): ``1 - (1 - p)^n``.
    """
    _check_probability(p)
    if n_ops < 0:
        raise ValueError("n_ops must be >= 0")
    return float(1.0 - (1.0 - p) ** n_ops)


def dmr_residual_risk(
    p: float, n_ops: int, collision: float = 1.0 / 32.0
) -> float:
    """Residual SDC probability under dual execution + comparison.

    A DMR operation is silently wrong only when *both* executions are
    hit and produce the same wrong value: ``p^2 * collision`` per
    operation.
    """
    _check_probability(p)
    _check_probability(collision)
    per_op = p * p * collision
    return float(1.0 - (1.0 - per_op) ** n_ops)


def tmr_residual_risk(
    p: float, n_ops: int, collision: float = 1.0 / 32.0
) -> float:
    """Residual SDC probability under triple execution + voting.

    A TMR vote elects a wrong value when at least two of three
    executions collide on the same wrong value: to first order
    ``3 * p^2 * collision`` per operation.
    """
    _check_probability(p)
    _check_probability(collision)
    per_op = 3.0 * p * p * collision
    return float(1.0 - (1.0 - min(per_op, 1.0)) ** n_ops)


def bucket_overflow_probability(
    p_error: float,
    n_ops: int,
    factor: int = 2,
    ceiling: int | None = None,
) -> float:
    """P(leaky bucket overflows within ``n_ops`` operations).

    Exact Markov-chain evaluation: state = bucket level, transition
    +``factor`` (capped) with probability ``p_error``, -1 (floored)
    otherwise.  This is the *availability* side of Algorithm 3 --- how
    likely a transient-fault environment is to trip the persistent-
    failure report anyway.
    """
    _check_probability(p_error)
    if ceiling is None:
        ceiling = 2 * factor - 1
    if ceiling < factor:
        raise ValueError("ceiling must be >= factor")
    # States 0..ceiling-1 live, state 'ceiling' absorbing (overflow).
    n_states = ceiling + 1
    dist = np.zeros(n_states)
    dist[0] = 1.0
    for _ in range(n_ops):
        nxt = np.zeros(n_states)
        nxt[ceiling] = dist[ceiling]  # absorbing
        for level in range(ceiling):
            mass = dist[level]
            # repro: allow[FLOAT-EQ] -- analytic probability mass
            # (sums of non-negative products), skipping empty chain
            # states; not a redundancy/word comparison.
            if mass == 0.0:
                continue
            up = min(level + factor, ceiling)
            nxt[up] += mass * p_error
            nxt[max(level - 1, 0)] += mass * (1.0 - p_error)
        dist = nxt
    return float(dist[ceiling])


@dataclass
class CostModel:
    """Computation cost of protection strategies for one model.

    All counts are scalar multiply-accumulates per inference.  The
    qualifier's cost is charged to the hybrid; it is estimated as the
    dominant terms of its pipeline (gradient correlation if run on the
    raw image, plus contour walk and SAX encoding).
    """

    model: Sequential
    input_shape: tuple[int, ...]
    partition: HybridPartition

    def native_ops(self) -> int:
        """Unprotected inference cost."""
        return sum(self.model.operation_counts(self.input_shape).values())

    def full_duplication_ops(self, copies: int = 2) -> int:
        """Whole-network redundancy: every op executed ``copies`` times."""
        if copies < 2:
            raise ValueError("duplication needs >= 2 copies")
        return copies * self.native_ops()

    def qualifier_ops(self) -> int:
        """Estimated qualifier cost for the integrated hybrid.

        The bifurcated feature map is already computed by the shared
        conv; the qualifier adds thresholding (1 op/pixel), the
        contour walk (~8 ops per boundary pixel, boundary <= 4*(h+w))
        and SAX (~3 ops per series sample).  Dominated by the
        threshold pass.
        """
        shape = self.input_shape
        for layer in self.model:
            if layer.name == self.partition.bifurcation_layer:
                shape = layer.output_shape(shape)
                break
            shape = layer.output_shape(shape)
        _, h, w = shape
        threshold_pass = h * w
        contour_walk = 8 * 4 * (h + w)
        sax_cost = 3 * 128
        return threshold_pass + contour_walk + sax_cost

    def hybrid_ops(self) -> int:
        """Hybrid cost: native net + extra redundant executions of the
        reliable partition + the qualifier."""
        reliable = self.partition.reliable_operation_count(
            self.model, self.input_shape
        )
        extra_copies = self.partition.redundancy_multiplier() - 1
        return self.native_ops() + extra_copies * reliable + self.qualifier_ops()

    def savings_vs_duplication(self) -> float:
        """Fraction of the duplicated cost the hybrid avoids."""
        dup = self.full_duplication_ops(
            copies=self.partition.redundancy_multiplier()
        )
        return 1.0 - self.hybrid_ops() / dup


@dataclass
class ReliabilityGuarantee:
    """End-to-end guarantee statement for a hybrid configuration.

    Parameters
    ----------
    model, input_shape, partition:
        The hybrid configuration under analysis.
    fault_probability:
        Per-operation transient fault probability ``p``.
    collision:
        Same-wrong-value collision probability for redundant
        executions (see module docstring).
    """

    model: Sequential
    input_shape: tuple[int, ...]
    partition: HybridPartition
    fault_probability: float = 1e-7
    collision: float = 1.0 / 32.0

    def reliable_ops(self) -> int:
        return self.partition.reliable_operation_count(
            self.model, self.input_shape
        )

    def unprotected_sdc(self) -> float:
        """SDC probability of the plain CNN's full inference."""
        total = sum(self.model.operation_counts(self.input_shape).values())
        return plain_sdc_probability(self.fault_probability, total)

    def protected_path_sdc(self) -> float:
        """Residual SDC of the dependable path (the guarantee).

        Only the reliable partition and the deterministic qualifier
        feed the confirmed decision.  The partition's operations are
        protected by comparison, leaving the collision residual
        counted here; the qualifier adds no per-operation fault term
        (see the module docstring).
        """
        n = self.reliable_ops()
        masks = operator_masks(self.partition.redundancy)
        copies = self.partition.redundancy_multiplier()
        if masks and copies == 3:
            return tmr_residual_risk(self.fault_probability, n,
                                     self.collision)
        if not masks and copies == 2:
            return dmr_residual_risk(self.fault_probability, n,
                                     self.collision)
        # A custom operator kind the analytic model has no formula
        # for: refuse loudly rather than publish wrong numbers.
        raise NotImplementedError(
            f"no analytic residual-risk model for operator kind "
            f"{self.partition.redundancy!r} ({copies} copies, "
            f"masks_faults={masks}); only 2-copy detection (dmr) and "
            "3-copy voting (tmr) are modelled"
        )

    def availability_loss(self) -> float:
        """P(the reliable path aborts on transients) per inference."""
        # Per-operation *detected* error probability under redundancy:
        # any disagreement between copies.
        p = self.fault_probability
        copies = self.partition.redundancy_multiplier()
        p_detect = 1.0 - (1.0 - p) ** copies  # >= 1 copy hit
        return bucket_overflow_probability(p_detect, self.reliable_ops())

    def improvement_factor(self) -> float:
        """Unprotected SDC / protected-path SDC (higher is better)."""
        protected = self.protected_path_sdc()
        # repro: allow[FLOAT-EQ] -- division-by-zero guard on an
        # analytic SDC probability; not a redundancy/word comparison.
        if protected == 0.0:
            return float("inf")
        return self.unprotected_sdc() / protected

    def summary(self) -> str:
        cost = CostModel(self.model, self.input_shape, self.partition)
        return "\n".join([
            f"fault probability per op:     {self.fault_probability:.2e}",
            f"reliable ops per inference:   {self.reliable_ops():,}",
            f"unprotected CNN SDC:          {self.unprotected_sdc():.3e}",
            f"dependable-path residual SDC: {self.protected_path_sdc():.3e}",
            f"improvement factor:           {self.improvement_factor():.3e}",
            f"availability loss (aborts):   {self.availability_loss():.3e}",
            f"hybrid ops vs duplication:    "
            f"{cost.hybrid_ops():,} vs {cost.full_duplication_ops():,} "
            f"({100 * cost.savings_vs_duplication():.1f}% saved)",
        ])


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
