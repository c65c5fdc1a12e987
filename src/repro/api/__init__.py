"""``repro.api`` -- the unified pipeline layer.

The canonical way to construct and run hybrid inference.  Everything
is importable flat from this package:

>>> from repro.api import (
...     Architecture, PipelineConfig, QualifierConfig,
...     HybridPipeline, BatchResult, build_pipeline,
...     OPERATORS, BASELINES,
... )

The layers:

* **Configs** -- :class:`PipelineConfig` is the one validated,
  JSON-round-trippable description of a hybrid's wiring: the
  :class:`Architecture`, a nested :class:`QualifierConfig` and, for
  the integrated architecture, a nested
  :class:`~repro.core.partition.HybridPartition`.  The hybrid
  interchange format (:mod:`repro.hybridir`) stores it as is.
* **Registries** (:data:`OPERATORS`, :data:`BASELINES`,
  :data:`CAMPAIGN_TARGETS`) -- string-keyed builder maps with a
  ``register()`` decorator, so redundancy operators, protection
  baselines and campaign targets plug in without touching the code
  that dispatches on them.
* **Facade** (:class:`HybridPipeline` via :func:`build_pipeline`) --
  ``infer`` / ``infer_batch`` / ``infer_stream`` over either
  architecture, returning :class:`~repro.core.hybrid.HybridResult`
  per image and :class:`BatchResult` aggregates per batch, with the
  batched path vectorised through
  :meth:`repro.nn.network.Sequential.forward`.
* **Serving** (:class:`PipelineServer` via ``HybridPipeline.serve``,
  configured by :class:`ServingConfig`) -- concurrent single-image
  submissions micro-batched onto ``infer_batch`` with backpressure
  and bitwise serial-``infer`` parity; see ``docs/serving.md``.

See ``docs/api-reference.md`` for the complete symbol reference.
"""

from repro.api.config import (
    DEFAULT_SAFETY_CLASS,
    Architecture,
    ChaosConfig,
    PipelineConfig,
    QualifierConfig,
    ServingConfig,
)
from repro.api.registry import (
    BASELINES,
    CAMPAIGN_TARGETS,
    OPERATORS,
    Registry,
    RegistryError,
)
from repro.api.results import BatchResult
from repro.api.pipeline import (
    HybridPipeline,
    build_baseline,
    build_operator,
    build_pipeline,
    build_qualifier,
)
from repro.serving import (
    PendingResult,
    PipelineServer,
    ServerStats,
)

__all__ = [
    "Architecture",
    "DEFAULT_SAFETY_CLASS",
    "PipelineConfig",
    "QualifierConfig",
    "ServingConfig",
    "ChaosConfig",
    "Registry",
    "RegistryError",
    "OPERATORS",
    "BASELINES",
    "CAMPAIGN_TARGETS",
    "BatchResult",
    "HybridPipeline",
    "PipelineServer",
    "PendingResult",
    "ServerStats",
    "build_pipeline",
    "build_qualifier",
    "build_operator",
    "build_baseline",
]
