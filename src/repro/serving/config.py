"""Micro-batching and backpressure configuration of
:class:`~repro.serving.server.PipelineServer`.

It lives with the server rather than in :mod:`repro.api.config` so
that importing :mod:`repro.serving` never imports the
:mod:`repro.api` package, which itself imports the server;
``repro.api`` re-exports :class:`ServingConfig`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.core.partition import _check_no_unknown_keys

#: Backpressure policies of the serving queue.
SERVING_OVERFLOW_POLICIES = ("block", "reject")

#: Response-cache modes of the serving layer (see
#: :mod:`repro.serving.cache`): ``"off"`` disables caching entirely,
#: ``"lru"`` enables the content-addressed LRU result store with
#: in-flight coalescing.
SERVING_CACHE_MODES = ("off", "lru")


@dataclass(frozen=True, kw_only=True)
class ServingConfig:
    """Micro-batching and backpressure knobs for
    :class:`~repro.serving.server.PipelineServer`.

    Attributes
    ----------
    max_batch:
        Flush a forming micro-batch as soon as it holds this many
        requests.  The upper bound of the realized batch size; match
        it to the throughput sweet spot of ``infer_batch``.
    max_wait_ms:
        Flush no later than this many milliseconds after the oldest
        request in the forming batch -- the latency bound a
        half-empty batch is allowed to cost.  ``0`` disables the wait
        entirely: each flush takes only what is already queued.
    queue_capacity:
        Bound of the submission queue (requests accepted but not yet
        batched).  The backpressure reservoir: bigger absorbs burstier
        traffic, smaller bounds memory and queueing delay.
    overflow:
        What a full queue does to ``submit()``: ``"block"`` waits (up
        to ``submit_timeout_s``), ``"reject"`` raises
        :class:`~repro.serving.server.ServerOverloaded` immediately.
    submit_timeout_s:
        Longest a blocking ``submit()`` may wait on a full queue
        before raising (None: wait indefinitely).  Ignored under
        ``"reject"``.
    cache:
        Response-cache mode (:data:`SERVING_CACHE_MODES`).  ``"off"``
        (default) serves every request through the batcher; ``"lru"``
        puts a content-addressed result store in front of it, keyed by
        ``(sha256(image storage bytes + shape + dtype),
        PipelineConfig.content_hash())``, with single-flight in-flight
        coalescing -- safe because results are bitwise-deterministic
        per key (see ``docs/serving.md``).  Individual submissions may
        opt out via ``submit(..., use_cache=False)``.
    cache_max_entries:
        Bound of the LRU result store (ignored under ``cache="off"``).
        Least-recently-used entries evict beyond it.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    queue_capacity: int = 256
    overflow: str = "block"
    submit_timeout_s: float | None = None
    cache: str = "off"
    cache_max_entries: int = 1024

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if not (math.isfinite(self.max_wait_ms) and self.max_wait_ms >= 0):
            raise ValueError("max_wait_ms must be finite and non-negative")
        if self.queue_capacity < self.max_batch:
            raise ValueError(
                "queue_capacity must be at least max_batch "
                f"({self.queue_capacity} < {self.max_batch}); a queue "
                "smaller than one batch can never fill a flush"
            )
        if self.overflow not in SERVING_OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {self.overflow!r}; choose "
                f"one of {SERVING_OVERFLOW_POLICIES}"
            )
        if self.submit_timeout_s is not None and not (
            math.isfinite(self.submit_timeout_s)
            and self.submit_timeout_s >= 0
        ):
            raise ValueError(
                "submit_timeout_s must be finite and non-negative, or None"
            )
        if self.cache not in SERVING_CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {self.cache!r}; choose one of "
                f"{SERVING_CACHE_MODES}"
            )
        if self.cache_max_entries <= 0:
            raise ValueError("cache_max_entries must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> ServingConfig:
        _check_no_unknown_keys(cls, data)
        return cls(**data)
