"""``repro.serving`` -- concurrent micro-batching inference serving.

Single-image requests from many client threads coalesce into
``infer_batch`` calls sized by load (``max_batch`` / ``max_wait_ms``),
with bounded-queue backpressure, per-request result demux, and bitwise
parity with serial ``pipeline.infer()`` regardless of how requests
interleave into batches.  See ``docs/serving.md``.

>>> from repro.api import build_pipeline
>>> from repro.serving import PipelineServer, ServingConfig
>>> with PipelineServer(pipeline, ServingConfig(max_batch=32)) as server:
...     pending = [server.submit(image) for image in images]
...     results = [p.result() for p in pending]
"""

from repro.serving.cache import ResponseCache, response_digest
from repro.serving.config import ServingConfig
from repro.serving.server import (
    BatcherCrash,
    PendingResult,
    PipelineServer,
    ServerClosed,
    ServerError,
    ServerOverloaded,
)
from repro.serving.stats import ServerStats

__all__ = [
    "BatcherCrash",
    "PipelineServer",
    "PendingResult",
    "ResponseCache",
    "ServerStats",
    "ServingConfig",
    "ServerError",
    "ServerClosed",
    "ServerOverloaded",
    "response_digest",
]
