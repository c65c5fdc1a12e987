"""``repro.api`` -- the unified pipeline layer.

The canonical way to construct and run hybrid inference.  Everything
is importable flat from this package:

>>> from repro.api import (
...     Architecture, Redundancy,
...     PipelineConfig, QualifierConfig, PartitionConfig,
...     HybridPipeline, BatchResult, build_pipeline,
...     ARCHITECTURES, QUALIFIERS, OPERATORS, BASELINES,
... )

Three layers:

* **Configs** (:class:`PipelineConfig`, :class:`QualifierConfig`,
  :class:`PartitionConfig`) -- validated, JSON-round-trippable
  descriptions of a pipeline's wiring.
* **Registries** (:data:`ARCHITECTURES`, :data:`QUALIFIERS`,
  :data:`OPERATORS`, :data:`BASELINES`) -- string-keyed builder maps
  with a ``register()`` decorator, so new architectures, qualifiers,
  redundancy operators and protection baselines plug in without
  touching ``repro.core``.
* **Facade** (:class:`HybridPipeline` via :func:`build_pipeline`) --
  ``infer`` / ``infer_batch`` / ``infer_stream`` over any registered
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
    PartitionConfig,
    PipelineConfig,
    QualifierConfig,
    Redundancy,
    ServingConfig,
)
from repro.api.registry import (
    ARCHITECTURES,
    BASELINES,
    CAMPAIGN_TARGETS,
    OPERATORS,
    QUALIFIERS,
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
    "Redundancy",
    "DEFAULT_SAFETY_CLASS",
    "PipelineConfig",
    "QualifierConfig",
    "PartitionConfig",
    "ServingConfig",
    "ChaosConfig",
    "Registry",
    "RegistryError",
    "ARCHITECTURES",
    "QUALIFIERS",
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
