"""The paper's contribution: hybrid CNNs with a reliability guarantee.

* :mod:`repro.core.qualifier` -- the reliably-executed shape
  qualifier: edge map -> contour -> centroid-distance series -> SAX
  word -> template match.  The scalar pipeline runs twice under
  checkpoint/rollback; the batched engine
  (:mod:`repro.core.qualifier_batch`) runs the exact stock types once,
  since their second run would repeat the first word for word.
* :mod:`repro.core.partition` -- which parts of the network form the
  dependable CNN (DCNN) and what that costs.
* :mod:`repro.core.hybrid` -- the two architectures: the parallel
  qualifier of Figure 1 and the integrated, bifurcating hybrid of
  Figure 2, combined by the reliable-result block.
* :mod:`repro.core.guarantee` -- the analytic reliability model that
  turns per-operation fault rates and a protection configuration into
  end-to-end detection/SDC probabilities, and the compute cost model
  behind the paper's "conserve both footprint and computational
  power" claim.
"""

from repro.core.qualifier import (
    QualifierVerdict,
    ShapeQualifier,
    octagon_template_word,
    shape_template_word,
)
from repro.core.qualifier_batch import (
    batched_check,
    batched_check_feature_map,
    batched_is_exact,
)
from repro.core.partition import HybridPartition
from repro.core.hybrid import (
    Decision,
    HybridResult,
    IntegratedHybridCNN,
    ParallelHybridCNN,
    ReliableResultBlock,
)
from repro.core.guarantee import (
    CostModel,
    ReliabilityGuarantee,
    dmr_residual_risk,
    plain_sdc_probability,
    tmr_residual_risk,
)

__all__ = [
    "ShapeQualifier",
    "QualifierVerdict",
    "batched_check",
    "batched_check_feature_map",
    "batched_is_exact",
    "shape_template_word",
    "octagon_template_word",
    "HybridPartition",
    "ParallelHybridCNN",
    "IntegratedHybridCNN",
    "ReliableResultBlock",
    "HybridResult",
    "Decision",
    "ReliabilityGuarantee",
    "CostModel",
    "plain_sdc_probability",
    "dmr_residual_risk",
    "tmr_residual_risk",
]
