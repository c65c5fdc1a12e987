"""``repro.api`` -- the unified pipeline layer.

The canonical way to construct and run hybrid inference.  Everything
is importable flat from this package:

>>> from repro.api import (
...     Architecture, PipelineConfig, QualifierConfig,
...     HybridPipeline, BatchResult, build_pipeline,
... )

The layers:

* **Configs** -- :class:`PipelineConfig` is the one validated,
  JSON-round-trippable description of a hybrid's wiring: the
  :class:`Architecture`, a nested :class:`QualifierConfig` and, for
  the integrated architecture, a nested
  :class:`~repro.core.partition.HybridPartition`.  The hybrid
  interchange format (:mod:`repro.hybridir`) stores it as is.
* **Registry** (:data:`CAMPAIGN_TARGETS`) -- the string-keyed map a
  campaign spec names its target from, with a ``register()``
  decorator, so campaign targets plug in without touching the engine.
  Redundancy operator kinds register in
  :func:`repro.reliable.operators.register_operator`.
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
)
from repro.api.registry import CAMPAIGN_TARGETS, Registry, RegistryError
from repro.api.results import BatchResult
from repro.api.pipeline import (
    HybridPipeline,
    build_pipeline,
    build_qualifier,
)
from repro.serving import (
    PendingResult,
    PipelineServer,
    ServerStats,
    ServingConfig,
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
    "CAMPAIGN_TARGETS",
    "BatchResult",
    "HybridPipeline",
    "PipelineServer",
    "PendingResult",
    "ServerStats",
    "build_pipeline",
    "build_qualifier",
]
