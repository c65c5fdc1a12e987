"""PipelineServer unit behaviour: lifecycle, batching, backpressure,
degradation routing, stats, failure demux."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import ServingConfig
from repro.core.hybrid import Decision, HybridResult
from repro.core.qualifier import QualifierVerdict
from repro.serving import (
    PipelineServer,
    ServerClosed,
    ServerError,
    ServerOverloaded,
)


class StubPipeline:
    """Duck-typed pipeline: one fabricated result per image, with
    controllable latency and failure, and a call log for batching
    assertions."""

    def __init__(self, delay_s: float = 0.0, fail: bool = False,
                 decision: Decision = Decision.NOT_SAFETY_CRITICAL):
        self.delay_s = delay_s
        self.fail = fail
        self.decision = decision
        self.batches: list[int] = []
        self.lock = threading.Lock()

    def infer_batch(self, images, qualifier_views=None):
        with self.lock:
            self.batches.append(len(images))
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail:
            raise RuntimeError("synthetic pipeline failure")
        return [
            HybridResult(
                probabilities=np.array(
                    [float(image.sum()), 1.0], dtype=np.float64
                ),
                predicted_class=0,
                verdict=QualifierVerdict(),
                decision=self.decision,
            )
            for image in images
        ]


def _image(value: float = 1.0, size: int = 4) -> np.ndarray:
    return np.full((3, size, size), value, dtype=np.float32)


def test_submit_requires_running_server():
    server = PipelineServer(StubPipeline())
    with pytest.raises(ServerClosed):
        server.submit(_image())


def test_start_twice_raises():
    with PipelineServer(StubPipeline()) as server:
        with pytest.raises(ServerError):
            server.start()


def test_results_demux_to_their_own_requests():
    """Each request's result corresponds to its own image, not its
    batch neighbours' (per-request demux)."""
    with PipelineServer(
        StubPipeline(), ServingConfig(max_batch=8, max_wait_ms=20)
    ) as server:
        values = [float(i) for i in range(16)]
        pendings = [server.submit(_image(v)) for v in values]
        for value, pending in zip(values, pendings):
            result = pending.result(timeout=10)
            assert result.probabilities[0] == value * 3 * 4 * 4


def test_micro_batches_coalesce():
    stub = StubPipeline()
    with PipelineServer(
        stub, ServingConfig(max_batch=4, max_wait_ms=200)
    ) as server:
        pendings = [server.submit(_image(float(i))) for i in range(12)]
        for pending in pendings:
            pending.result(timeout=10)
    assert sum(stub.batches) == 12
    # Coalescing must actually happen: far fewer flushes than
    # requests, and no flush above max_batch.
    assert len(stub.batches) <= 6
    assert max(stub.batches) <= 4
    stats = server.stats()
    assert stats.completed == 12
    assert stats.batches == len(stub.batches)
    assert stats.mean_batch_size == pytest.approx(
        12 / len(stub.batches)
    )


def test_max_wait_flushes_partial_batch():
    stub = StubPipeline()
    with PipelineServer(
        stub, ServingConfig(max_batch=64, max_wait_ms=10)
    ) as server:
        pending = server.submit(_image())
        result = pending.result(timeout=10)
        assert result is not None
    assert stub.batches == [1]


def test_reject_backpressure():
    stub = StubPipeline(delay_s=0.2)
    config = ServingConfig(
        max_batch=2, max_wait_ms=0, queue_capacity=2, overflow="reject"
    )
    with PipelineServer(stub, config) as server:
        accepted = []
        rejected = 0
        for i in range(40):
            try:
                accepted.append(server.submit(_image(float(i))))
            except ServerOverloaded:
                rejected += 1
        assert rejected > 0, "queue of 2 must overflow under 40 bursts"
        for pending in accepted:
            pending.result(timeout=30)
    stats = server.stats()
    assert stats.rejected == rejected
    assert stats.completed == len(accepted)


def test_block_backpressure_times_out():
    stub = StubPipeline(delay_s=0.5)
    config = ServingConfig(
        max_batch=2,
        max_wait_ms=0,
        queue_capacity=2,
        overflow="block",
        submit_timeout_s=0.05,
    )
    with PipelineServer(stub, config) as server:
        with pytest.raises(ServerOverloaded):
            for i in range(40):
                server.submit(_image(float(i)))
        # Drain what was accepted so stop() is quick.
    assert server.stats().rejected == 1


def test_batcher_death_fails_pending_instead_of_hanging():
    """If the serve loop itself dies (not just one flush), queued
    requests must complete with the error -- a client blocked in
    ``result()`` with no timeout must never hang on a dead thread."""

    server = PipelineServer(
        StubPipeline(), ServingConfig(max_batch=4, max_wait_ms=1)
    )
    server.start()
    # Per-flush errors are demuxed (see the test above); kill the
    # serve loop itself instead: calling None raises TypeError
    # outside every per-group guard.
    server._flush = None  # type: ignore[assignment]
    pendings = [server.submit(_image(float(i))) for i in range(6)]
    for pending in pendings:
        with pytest.raises((ServerError, ServerClosed)):
            pending.result(timeout=10)
    server.stop()


def test_pipeline_exception_propagates_to_each_request():
    with PipelineServer(
        StubPipeline(fail=True), ServingConfig(max_batch=4, max_wait_ms=5)
    ) as server:
        pendings = [server.submit(_image()) for _ in range(6)]
        for pending in pendings:
            with pytest.raises(RuntimeError, match="synthetic"):
                pending.result(timeout=10)
    stats = server.stats()
    assert stats.failed == 6
    assert stats.completed == 0


def test_stop_drains_queued_requests():
    stub = StubPipeline(delay_s=0.05)
    server = PipelineServer(
        stub, ServingConfig(max_batch=4, max_wait_ms=0)
    )
    server.start()
    pendings = [server.submit(_image(float(i))) for i in range(12)]
    server.stop(drain=True)
    assert all(p.done() for p in pendings)
    for pending in pendings:
        assert pending.result(timeout=0) is not None
    assert not server.running
    with pytest.raises(ServerClosed):
        server.submit(_image())


def test_stop_without_drain_cancels_queued_requests():
    stub = StubPipeline(delay_s=0.2)
    server = PipelineServer(
        stub, ServingConfig(max_batch=1, max_wait_ms=0)
    )
    server.start()
    pendings = [server.submit(_image(float(i))) for i in range(10)]
    time.sleep(0.05)  # let the batcher pick up the first request
    server.stop(drain=False)
    outcomes = {"served": 0, "cancelled": 0}
    for pending in pendings:
        try:
            pending.result(timeout=1)
            outcomes["served"] += 1
        except ServerClosed:
            outcomes["cancelled"] += 1
    assert outcomes["cancelled"] > 0
    assert server.stats().cancelled == outcomes["cancelled"]


def test_restart_after_stop():
    server = PipelineServer(
        StubPipeline(), ServingConfig(max_batch=2, max_wait_ms=1)
    )
    for _ in range(2):
        server.start()
        assert server.submit(_image()).result(timeout=10) is not None
        server.stop()


def test_degradation_routing():
    routed = []
    with PipelineServer(
        StubPipeline(decision=Decision.REJECTED_BY_QUALIFIER),
        ServingConfig(max_batch=4, max_wait_ms=5),
        on_degraded=routed.append,
    ) as server:
        pendings = [server.submit(_image(float(i))) for i in range(5)]
        results = [p.result(timeout=10) for p in pendings]
    # Routing is in addition to, not instead of, delivery.
    assert len(results) == 5
    assert len(routed) == 5
    assert all(r.flagged for r in routed)
    assert server.stats().degraded == 5


def test_degradation_hook_errors_are_swallowed():
    def bad_hook(result):
        raise ValueError("supervisory layer fell over")

    with PipelineServer(
        StubPipeline(decision=Decision.QUALIFIER_UNAVAILABLE),
        ServingConfig(max_batch=2, max_wait_ms=1),
        on_degraded=bad_hook,
    ) as server:
        assert server.submit(_image()).result(timeout=10) is not None


def test_latency_percentiles_populated():
    with PipelineServer(
        StubPipeline(delay_s=0.01), ServingConfig(max_batch=4, max_wait_ms=1)
    ) as server:
        pendings = [server.submit(_image()) for _ in range(8)]
        for pending in pendings:
            pending.result(timeout=10)
    stats = server.stats()
    assert stats.p50_latency_ms > 0
    assert stats.p99_latency_ms >= stats.p50_latency_ms
    assert stats.throughput_rps > 0
    assert stats.uptime_seconds > 0


def test_mixed_shapes_batch_in_compatible_groups():
    """Heterogeneous resolutions in one flush must all be served (the
    batcher groups compatible requests instead of erroring)."""
    stub = StubPipeline()
    with PipelineServer(
        stub, ServingConfig(max_batch=8, max_wait_ms=50)
    ) as server:
        small = [server.submit(_image(1.0, size=4)) for _ in range(3)]
        large = [server.submit(_image(1.0, size=6)) for _ in range(3)]
        for pending in small:
            assert pending.result(timeout=10).probabilities[0] == 48.0
        for pending in large:
            assert pending.result(timeout=10).probabilities[0] == 108.0


def test_serving_config_validation_and_round_trip():
    config = ServingConfig(
        max_batch=16,
        max_wait_ms=1.5,
        queue_capacity=64,
        overflow="reject",
        submit_timeout_s=2.0,
    )
    assert ServingConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError):
        ServingConfig(max_batch=0)
    with pytest.raises(ValueError):
        ServingConfig(max_wait_ms=-1)
    with pytest.raises(ValueError):
        ServingConfig(max_batch=8, queue_capacity=4)
    with pytest.raises(ValueError):
        ServingConfig(overflow="drop")
    with pytest.raises(ValueError):
        ServingConfig(submit_timeout_s=-0.1)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ServingConfig(max_wait_ms=value)
        with pytest.raises(ValueError):
            ServingConfig(submit_timeout_s=value)
    with pytest.raises(ValueError):
        ServingConfig.from_dict({"max_batch": 8, "burst": True})
