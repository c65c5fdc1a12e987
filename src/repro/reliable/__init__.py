"""Reliable execution substrate.

Implements the paper's Section IV machinery:

* **Algorithm 1** -- :class:`~repro.reliable.operators.PlainOperator`:
  single execution, qualifier always True (baseline).
* **Algorithm 2** -- :class:`~repro.reliable.operators.RedundantOperator`:
  dual execution with comparison (DMR); qualifier is the agreement of
  the two results.
* **TMR** -- :class:`~repro.reliable.operators.TMROperator`: triple
  execution with majority voting, the paper's "agreed upon by execution
  of the algorithm three times and voting on the result".
* **Algorithm 3** -- :func:`~repro.reliable.convolution.reliable_convolution`:
  a convolution whose every multiply and accumulate is checkpointed;
  a failed operation rolls back (re-executes) and errors feed a
  **leaky-bucket** counter (:class:`~repro.reliable.leaky_bucket.LeakyBucket`)
  whose ceiling turns repeated errors into an explicit
  :class:`~repro.reliable.errors.PersistentFailureError`.

Higher-level pieces: :class:`~repro.reliable.executor.ReliableConv2D`
runs any :class:`repro.nn.layers.Conv2D` through the reliable kernel
and produces an :class:`~repro.reliable.executor.ExecutionReport`;
:mod:`~repro.reliable.checkpoint` generalises checkpoint/rollback to
arbitrary segments (for the rollback-distance ablation);
:mod:`~repro.reliable.lockstep` models the Section II.A lockstep pair.
"""

from repro.reliable.qualified import QualifiedValue
from repro.reliable.bits import float_word, same_word, word_view
from repro.reliable.errors import (
    LockstepMismatchError,
    PersistentFailureError,
    ReliabilityError,
)
from repro.reliable.execution_unit import (
    ArrayExecutionUnit,
    ExecutionUnit,
    Float32ArrayUnit,
    Float32ExecutionUnit,
    Float64ArrayUnit,
    PerfectExecutionUnit,
    as_array_unit,
)
from repro.reliable.operators import (
    Operator,
    PlainOperator,
    RedundantOperator,
    TMROperator,
    make_operator,
    operator_kind_of,
)
from repro.reliable.leaky_bucket import LeakyBucket
from repro.reliable.voting import majority_vote
from repro.reliable.convolution import (
    ConvolutionStats,
    reliable_convolution,
    reliable_dot,
)
from repro.reliable.checkpoint import CheckpointedSegment, RollbackPolicy
from repro.reliable.lockstep import LockstepPair
from repro.reliable.fixed_point import (
    Q7_8,
    Q15_16,
    FixedPointExecutionUnit,
    QFormat,
)
from repro.reliable.spatial import (
    ArrayExhaustedError,
    PEArray,
    SpatialRedundantOperator,
)
from repro.reliable.ecc import (
    DecodeReport,
    ECCProtectedTensor,
    decode_words,
    encode_words,
)
from repro.reliable.executor import (
    ExecutionReport,
    ReliableConv2D,
    redundant_layer_forward,
)
from repro.reliable.vectorized import (
    can_speculate,
    speculation_is_exact,
    speculative_forward,
    vectorized_reliable_convolution,
)

__all__ = [
    "QualifiedValue",
    "float_word",
    "same_word",
    "word_view",
    "ReliabilityError",
    "PersistentFailureError",
    "LockstepMismatchError",
    "ExecutionUnit",
    "PerfectExecutionUnit",
    "Float32ExecutionUnit",
    "ArrayExecutionUnit",
    "Float64ArrayUnit",
    "Float32ArrayUnit",
    "as_array_unit",
    "Operator",
    "PlainOperator",
    "RedundantOperator",
    "TMROperator",
    "make_operator",
    "operator_kind_of",
    "LeakyBucket",
    "majority_vote",
    "reliable_convolution",
    "reliable_dot",
    "ConvolutionStats",
    "CheckpointedSegment",
    "RollbackPolicy",
    "LockstepPair",
    "ReliableConv2D",
    "ExecutionReport",
    "redundant_layer_forward",
    "speculative_forward",
    "vectorized_reliable_convolution",
    "can_speculate",
    "speculation_is_exact",
    "QFormat",
    "Q7_8",
    "Q15_16",
    "FixedPointExecutionUnit",
    "PEArray",
    "SpatialRedundantOperator",
    "ArrayExhaustedError",
    "ECCProtectedTensor",
    "DecodeReport",
    "encode_words",
    "decode_words",
]
