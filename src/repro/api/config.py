"""Declarative configuration for the hybrid pipeline.

:class:`PipelineConfig` is the one serialisable description of a
hybrid: which architecture, which qualifier (:class:`QualifierConfig`)
and which reliable partition (:class:`~repro.core.partition.
HybridPartition`, nested as ``partition``).  Every config validates
eagerly in ``__post_init__`` and round-trips losslessly through
``to_dict``/``from_dict``, so a pipeline's wiring can live in JSON
next to its weights -- the hybrid interchange format
(:mod:`repro.hybridir`) stores it as is.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.core.partition import HybridPartition, _check_no_unknown_keys
from repro.sax.breakpoints import MAX_ALPHABET

#: Index of the synthetic dataset's "Stop" sign -- the paper's
#: safety-critical class (see :data:`repro.data.STOP_CLASS_INDEX`).
DEFAULT_SAFETY_CLASS = 0


class Architecture(str, enum.Enum):
    """The two hybrid shapes of the paper (Figures 1 and 2)."""

    PARALLEL = "parallel"
    INTEGRATED = "integrated"


@dataclass(frozen=True, kw_only=True)
class QualifierConfig:
    """How to build the dependable shape qualifier; the fields mirror
    :class:`repro.core.qualifier.ShapeQualifier`."""

    shape: str = "octagon"
    word_length: int = 32
    alphabet_size: int = 8
    threshold: float = 3.0
    redundant: bool = True
    edge_threshold: float | None = None
    n_samples: int = 128

    def __post_init__(self) -> None:
        if self.word_length <= 0:
            raise ValueError("word_length must be positive")
        if not 2 <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(
                f"alphabet_size must be in [2, {MAX_ALPHABET}], "
                f"got {self.alphabet_size}"
            )
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.n_samples < self.word_length:
            raise ValueError(
                "n_samples must be at least word_length "
                f"({self.n_samples} < {self.word_length})"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> QualifierConfig:
        _check_no_unknown_keys(cls, data)
        return cls(**data)


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
    latency_window:
        How many recent completions feed the p50/p99 latency
        percentiles of :meth:`~repro.serving.server.PipelineServer.
        stats`.
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
    latency_window: int = 2048
    cache: str = "off"
    cache_max_entries: int = 1024

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
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
        if self.submit_timeout_s is not None and self.submit_timeout_s < 0:
            raise ValueError("submit_timeout_s must be non-negative")
        if self.latency_window <= 0:
            raise ValueError("latency_window must be positive")
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


@dataclass(frozen=True, kw_only=True)
class ChaosConfig:
    """Planned service-level fault load for one chaos experiment
    (see :mod:`repro.chaos`).

    Each count is the number of fault events of that type the
    :class:`~repro.chaos.faults.ServiceFaultInjector` schedules; the
    schedule itself (event order, delays, corrupted request indices,
    flipped bits) is drawn deterministically from the experiment's
    explicit random stream, never from ambient state.

    Attributes
    ----------
    latency_spikes:
        Server-side flushes delayed by roughly ``latency_ms`` (the
        exact delay per spike is drawn from the stream) -- absorbable:
        results are unaffected, only latency moves.
    latency_ms:
        Nominal latency-spike magnitude in milliseconds.
    timeouts:
        Server-side flushes that fail with
        :class:`~repro.chaos.faults.ChaosTimeout` (a hung dependency
        surfacing as an explicit timeout) -- every request in the
        flush group completes with the error.
    batcher_crashes:
        Server-side flushes that raise
        :class:`~repro.serving.server.BatcherCrash`, killing the
        batcher thread; the experiment driver restarts the server and
        carries on (the restart-accounting path under test).
    queue_exhaustion_bursts:
        Client-side burst phases that deterministically fill the
        bounded queue while the batcher is held mid-flush, then submit
        ``burst_overflow`` more -- each burst must produce exactly
        ``burst_overflow`` explicit rejections (requires
        ``overflow="reject"``).
    burst_overflow:
        Submissions past queue capacity per exhaustion burst; also the
        exact expected rejection count per burst.
    corrupt_payloads:
        Requests whose image payload gets ``corrupt_bits`` random
        storage-bit flips *before* submission.  Parity is then judged
        against a serial ``infer()`` of the corrupted payload -- the
        server must serve what it was given, bit-for-bit.
    corrupt_bits:
        Storage bits flipped per corrupted payload.
    stall_timeout_s:
        Upper bound on any injector-held stall (exhaustion bursts park
        the batcher inside a flush); the gate self-releases after this
        long so an orphaned experiment can never hang the server.
    """

    latency_spikes: int = 0
    latency_ms: float = 5.0
    timeouts: int = 0
    batcher_crashes: int = 0
    queue_exhaustion_bursts: int = 0
    burst_overflow: int = 3
    corrupt_payloads: int = 0
    corrupt_bits: int = 1
    stall_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        for name in (
            "latency_spikes",
            "timeouts",
            "batcher_crashes",
            "queue_exhaustion_bursts",
            "corrupt_payloads",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")
        if self.burst_overflow < 1:
            raise ValueError("burst_overflow must be at least 1")
        if self.corrupt_bits < 1:
            raise ValueError("corrupt_bits must be at least 1")
        if self.stall_timeout_s <= 0:
            raise ValueError("stall_timeout_s must be positive")

    @property
    def server_events(self) -> int:
        """Planned server-side (per-flush) fault events."""
        return self.latency_spikes + self.timeouts + self.batcher_crashes

    @property
    def total_events(self) -> int:
        """All planned fault events across both seams."""
        return (
            self.server_events
            + self.queue_exhaustion_bursts
            + self.corrupt_payloads
        )

    @property
    def disruptive_events(self) -> int:
        """Events expected to surface as explicit request failures or
        rejections (everything except absorbable latency spikes and
        payload corruption)."""
        return (
            self.timeouts
            + self.batcher_crashes
            + self.queue_exhaustion_bursts
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> ChaosConfig:
        _check_no_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    """Everything :func:`repro.api.build_pipeline` needs to wire a
    hybrid around a trained model.

    Attributes
    ----------
    architecture:
        An :class:`Architecture` value -- ``"parallel"`` (Figure 1)
        or ``"integrated"`` (Figure 2); anything else raises
        ``ValueError``.  :class:`Architecture` members are accepted
        and stored as their string value.
    safety_class:
        Class index the reliable-result block qualifies.
    qualifier:
        The dependable block's configuration.
    partition:
        Reliable/non-reliable split; only meaningful for the
        integrated architecture.  ``None`` means the default
        :class:`~repro.core.partition.HybridPartition` (the paper's
        conv1 Sobel pair).
    pin_sobel:
        When True the factory pins Sobel-x/-y stacks into the first
        two reliable filters of the bifurcation layer (or ``conv1``),
        the paper's Section III.B pre-initialisation.
    name:
        Display name carried through to results and summaries.
    """

    architecture: str = Architecture.PARALLEL.value
    safety_class: int = DEFAULT_SAFETY_CLASS
    qualifier: QualifierConfig = field(default_factory=QualifierConfig)
    partition: HybridPartition | None = None
    pin_sobel: bool = False
    name: str = "hybrid-pipeline"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "architecture", Architecture(self.architecture).value
        )
        if self.safety_class < 0:
            raise ValueError("safety_class must be non-negative")
        if not isinstance(self.qualifier, QualifierConfig):
            raise TypeError("qualifier must be a QualifierConfig")
        if self.partition is not None and not isinstance(
            self.partition, HybridPartition
        ):
            raise TypeError("partition must be a HybridPartition or None")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> PipelineConfig:
        _check_no_unknown_keys(cls, data)
        data = dict(data)
        if "qualifier" in data and isinstance(data["qualifier"], dict):
            data["qualifier"] = QualifierConfig.from_dict(data["qualifier"])
        if "partition" in data and isinstance(data["partition"], dict):
            data["partition"] = HybridPartition.from_dict(data["partition"])
        return cls(**data)

    def content_hash(self) -> str:
        """Stable digest of the pipeline's wiring (the campaign-spec
        hashing scheme: canonical JSON of :meth:`to_dict`).

        Two pipelines with the same hash are wired identically, so --
        by the repo's end-to-end bitwise-determinism guarantee -- they
        produce word-identical results for word-identical inputs.
        That is the safety premise of the serving response cache,
        which keys entries by ``(image digest, content_hash)``; see
        :mod:`repro.serving.cache`.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()
