"""Stop/start lifecycle regressions.

Two real bugs pinned failing-before/passing-after:

* **Restart accounting** -- ``StatsRecorder.mark_started()`` used to
  reset ``_started_at`` while the counters persisted, so a restarted
  server reported all-time completions divided by only the latest
  run's uptime (inflated ``throughput_rps``) and silently dropped all
  prior running time from ``uptime_seconds``.
* **Non-draining stop over-serves** -- when ``stop(drain=False)``
  landed while the queue was full, ``_close_intake``'s wake-up
  sentinel was refused (``queue.Full``) and the batcher's coalescing
  sweep kept popping and *flushing* requests the stop had promised to
  fail with ``ServerClosed``.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np
import pytest

from repro.api import ServingConfig
from repro.core.hybrid import Decision, HybridResult
from repro.core.qualifier import QualifierVerdict
from repro.serving import PipelineServer, ServerClosed
from repro.serving.stats import StatsRecorder


class _EchoPipeline:
    """Minimal duck-typed pipeline: one fabricated result per image."""

    def infer_batch(self, images, qualifier_views=None):
        return [
            HybridResult(
                probabilities=np.array(
                    [float(image.sum()), 1.0], dtype=np.float64
                ),
                predicted_class=0,
                verdict=QualifierVerdict(),
                decision=Decision.NOT_SAFETY_CRITICAL,
            )
            for image in images
        ]


def _image(value: float = 1.0, size: int = 4) -> np.ndarray:
    return np.full((3, size, size), value, dtype=np.float32)


# ---------------------------------------------------------------------------
# Bug 1: restart accounting
# ---------------------------------------------------------------------------


def test_recorder_restart_accumulates_uptime():
    """A stop/start cycle banks the prior run's uptime instead of
    discarding it, so throughput is never inflated by dividing
    all-time completions by only the latest run."""
    recorder = StatsRecorder()
    recorder.mark_started()
    time.sleep(0.05)
    for _ in range(100):
        recorder.record_delivery(0.001, cached=False, degraded=False)
    recorder.mark_stopped()
    first = recorder.snapshot(0)
    assert first.completed == 100
    assert first.uptime_seconds >= 0.05

    recorder.mark_started()  # restart: counters persist, uptime must too
    second = recorder.snapshot(0)
    assert second.uptime_seconds >= first.uptime_seconds
    # Pre-fix this exploded to completed / (a few microseconds); the
    # fixed rate can only *drop* as uptime keeps accumulating.
    assert second.throughput_rps <= first.throughput_rps * 1.01

    recorder.mark_stopped()
    third = recorder.snapshot(0)
    assert third.uptime_seconds >= second.uptime_seconds


def test_recorder_uptime_frozen_while_stopped():
    recorder = StatsRecorder()
    recorder.mark_started()
    recorder.mark_stopped()
    frozen = recorder.snapshot(0).uptime_seconds
    time.sleep(0.02)
    assert recorder.snapshot(0).uptime_seconds == frozen


def test_server_restart_keeps_cumulative_uptime_and_ledger():
    """Whole-server version: counters and uptime both span restarts,
    and the ledger keeps balancing across the second run."""
    server = PipelineServer(
        _EchoPipeline(), ServingConfig(max_batch=4, max_wait_ms=5)
    )
    server.start()
    pendings = [server.submit(_image(float(i))) for i in range(8)]
    for pending in pendings:
        pending.result(timeout=10)
    time.sleep(0.05)  # measurable first-run uptime
    server.stop(timeout=10)
    first = server.stats()
    assert first.completed == 8

    server.start()
    second = server.stats()
    assert second.completed == 8
    assert second.uptime_seconds >= first.uptime_seconds
    assert second.throughput_rps <= first.throughput_rps * 1.01

    more = [server.submit(_image(float(i))) for i in range(4)]
    for pending in more:
        pending.result(timeout=10)
    server.stop(timeout=10)
    final = server.stats()
    assert final.submitted == 12
    assert final.completed == 12
    assert final.uptime_seconds >= second.uptime_seconds
    assert (
        final.completed + final.failed + final.cancelled
        == final.submitted
    )


# ---------------------------------------------------------------------------
# Bug 2: non-draining stop with a refused sentinel
# ---------------------------------------------------------------------------


class _SweepGateQueue(queue.Queue):
    """Queue whose *first* ``get_nowait`` call parks until released.

    While the server runs, the batcher's coalescing sweep is the only
    ``get_nowait`` caller (the outer loop uses blocking ``get``;
    drain/cancel run only at shutdown), so the park deterministically
    catches the batcher inside its sweep -- exactly where the original
    bug lived -- while the test fills the queue and lands a no-drain
    stop whose sentinel gets refused.
    """

    def __init__(self, maxsize, entered, release):
        super().__init__(maxsize)
        self._entered = entered
        self._release = release
        self._armed = True

    def get_nowait(self):
        if self._armed:
            self._armed = False
            self._entered.set()
            assert self._release.wait(10.0), "test never released the sweep"
        return super().get_nowait()


def test_no_drain_stop_with_full_queue_stops_the_sweep():
    """``stop(drain=False)`` racing a full queue must not keep
    serving: the sentinel is refused, so the sweep itself has to
    notice the closed gates and fail what it pops."""
    entered, release = threading.Event(), threading.Event()
    capacity = 4
    server = PipelineServer(
        _EchoPipeline(),
        ServingConfig(
            max_batch=4, max_wait_ms=50, queue_capacity=capacity
        ),
    )
    # Swap in the gated queue before the batcher exists; same capacity
    # as the config so backpressure still holds.
    server._queue = _SweepGateQueue(capacity, entered, release)
    server.start()
    try:
        first = server.submit(_image(1.0))
        # The batcher has popped `first` and is parked inside its
        # coalescing sweep.
        assert entered.wait(10.0)
        queued = [
            server.submit(_image(float(i))) for i in range(2, 6)
        ]
        assert server._queue.full()  # sentinel will be refused
        stopper = threading.Thread(
            target=server.stop,
            kwargs={"drain": False, "timeout": 10.0},
        )
        stopper.start()
        deadline = time.perf_counter() + 5.0
        while server._accepting and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert not server._accepting  # no-drain stop has landed
        release.set()
        stopper.join(10.0)
        assert not stopper.is_alive()
    finally:
        release.set()
        server.stop(drain=False, timeout=10.0)

    # The request already in the batcher's hands is served...
    assert first.result(timeout=10) is not None
    # ...but everything still queued when the no-drain stop landed
    # fails with ServerClosed instead of being coalesced and flushed.
    for pending in queued:
        with pytest.raises(ServerClosed):
            pending.result(timeout=10)
    stats = server.stats()
    assert stats.submitted == 5
    assert stats.completed == 1
    assert stats.cancelled == 4
    assert stats.failed == 0
    assert (
        stats.completed + stats.failed + stats.cancelled
        == stats.submitted
    )
