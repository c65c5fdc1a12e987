"""Chaos-grade accounting invariants for the serving lifecycle.

Whatever faults fire -- crashes mid-flush, reject storms, cache-leader
aborts -- the server's ledger must balance (``submitted == completed +
failed + cancelled``, rejects separate) and every ``PendingResult``
must complete: every ``result()`` call here is bounded, so a hang is
a test failure, never a CI deadlock.

Two layers: randomized fault storms through the full
:class:`~repro.chaos.experiment.ChaosExperiment` harness (both
architectures, cache on and off), and targeted stub-pipeline tests
that pin each accounting seam in isolation.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import ChaosConfig, ServingConfig
from repro.chaos import ChaosExperiment
from repro.serving import (
    BatcherCrash,
    PipelineServer,
    ServerOverloaded,
)

TIMEOUT_S = 20.0


@pytest.fixture(scope="module")
def parallel_chaos_pipeline():
    from tests.chaos.conftest import make_chaos_pipeline

    return make_chaos_pipeline("parallel")


@pytest.fixture(scope="module")
def integrated_chaos_pipeline():
    from tests.chaos.conftest import make_chaos_pipeline

    return make_chaos_pipeline("integrated")


def _ledger_balances(stats) -> bool:
    return stats.submitted == (
        stats.completed + stats.failed + stats.cancelled
    )


# -- randomized storms through the chaos harness ------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("architecture", ["parallel", "integrated"])
@pytest.mark.parametrize("cache", ["off", "lru"])
def test_fault_storm_ledger_balances(request, seed, architecture, cache):
    pipeline = request.getfixturevalue(f"{architecture}_chaos_pipeline")
    experiment = ChaosExperiment(
        chaos=ChaosConfig(
            latency_spikes=1,
            latency_ms=1.0,
            timeouts=1,
            batcher_crashes=1,
            queue_exhaustion_bursts=1,
            corrupt_payloads=2,
        ),
        cache=cache,
        timeout_s=TIMEOUT_S,
    )
    report = experiment.run(pipeline, np.random.default_rng(seed))
    assert report.invariants_hold, report.violations
    stats = report.stats
    assert stats["submitted"] == (
        stats["completed"] + stats["failed"] + stats["cancelled"]
    )
    assert stats["rejected"] == report.plan.expected_rejections


# -- targeted stub-pipeline accounting tests ----------------------------

class _Result:
    """Minimal HybridResult stand-in (no flagging, no verdict)."""

    flagged = False

    def __init__(self, value: float) -> None:
        self.probabilities = np.full(4, value, dtype=np.float32)
        self.predicted_class = 0
        self.decision = "proceed"
        self.verdict = None
        self.reliable_report = None


class _CrashingPipeline:
    """Delivers the first half of a flush, then dies mid-batch --
    the worst case for a size-inferred ledger."""

    def __init__(self, crash_on_call: int = 1) -> None:
        self.calls = 0
        self.crash_on_call = crash_on_call

    def infer(self, image, qualifier_view=None):
        return _Result(float(image.mean()))

    def infer_batch(self, images, qualifier_views=None):
        self.calls += 1
        if self.calls == self.crash_on_call:
            raise BatcherCrash("stub crash mid-flush")
        return [_Result(float(image.mean())) for image in images]


def _image(value: float, size: int = 4) -> np.ndarray:
    return np.full((3, size, size), value, dtype=np.float32)


def test_crash_mid_flush_ledger_balances_and_no_handle_hangs():
    pipeline = _CrashingPipeline(crash_on_call=1)
    server = PipelineServer(
        pipeline,
        ServingConfig(max_batch=4, max_wait_ms=20.0, queue_capacity=16),
    )
    server.start()
    handles = [server.submit(_image(0.1 * i)) for i in range(8)]
    outcomes = {"delivered": 0, "errored": 0}
    for handle in handles:
        try:
            handle.result(timeout=TIMEOUT_S)
            outcomes["delivered"] += 1
        except TimeoutError:
            pytest.fail("PendingResult hung after batcher crash")
        except Exception:
            outcomes["errored"] += 1
    # The crashed flush and everything queued behind it errored; the
    # batcher died, so nothing else can have been delivered.
    assert outcomes["errored"] >= 1
    server.stop(drain=False, timeout=TIMEOUT_S)
    stats = server.stats()
    assert _ledger_balances(stats), stats
    assert stats.submitted == 8
    assert stats.completed == outcomes["delivered"]


def test_crash_after_partial_flush_keeps_delivered_completions():
    """Flush 1 delivers, flush 2 crashes: the completions from the
    healthy flush must survive in the ledger (each delivery is counted
    where its handle completes, not inferred from batch size)."""
    pipeline = _CrashingPipeline(crash_on_call=2)
    server = PipelineServer(
        pipeline,
        ServingConfig(max_batch=2, max_wait_ms=5.0, queue_capacity=16),
    )
    server.start()
    first = [server.submit(_image(0.2 * i)) for i in range(2)]
    for handle in first:
        handle.result(timeout=TIMEOUT_S)  # healthy flush delivered
    second = [server.submit(_image(0.7 + 0.1 * i)) for i in range(2)]
    for handle in second:
        with pytest.raises(Exception):
            handle.result(timeout=TIMEOUT_S)
    server.stop(drain=False, timeout=TIMEOUT_S)
    stats = server.stats()
    assert _ledger_balances(stats), stats
    assert stats.completed == 2
    assert stats.cancelled >= 2


class _SlowPipeline:
    """Holds each flush until released -- lets a test wedge the queue
    full deterministically."""

    def __init__(self) -> None:
        self.release = threading.Event()

    def infer(self, image, qualifier_view=None):
        return _Result(float(image.mean()))

    def infer_batch(self, images, qualifier_views=None):
        assert self.release.wait(TIMEOUT_S), "test never released flush"
        return [_Result(float(image.mean())) for image in images]


def test_reject_storm_counts_every_refusal_separately():
    pipeline = _SlowPipeline()
    server = PipelineServer(
        pipeline,
        ServingConfig(
            max_batch=4,
            max_wait_ms=0.0,
            queue_capacity=4,
            overflow="reject",
        ),
    )
    server.start()
    accepted = [server.submit(_image(0.5))]  # batcher takes this one
    # Wait for the batcher to enter the (held) flush, then fill the
    # queue exactly and storm past it.
    deadline = threading.Event()
    for _ in range(200):
        if server.stats().queue_depth == 0 and server.stats().batches == 0:
            break
        deadline.wait(0.01)
    while True:
        try:
            accepted.append(server.submit(_image(0.5)))
        except ServerOverloaded:
            break
    rejects = 0
    for _ in range(10):
        with pytest.raises(ServerOverloaded):
            server.submit(_image(0.5))
        rejects += 1
    pipeline.release.set()
    for handle in accepted:
        handle.result(timeout=TIMEOUT_S)
    server.stop(drain=True, timeout=TIMEOUT_S)
    stats = server.stats()
    assert _ledger_balances(stats), stats
    assert stats.submitted == len(accepted)
    assert stats.completed == len(accepted)
    # The storm's refusals (plus the one that found the queue full
    # first) are all in ``rejected`` -- never folded into the ledger.
    assert stats.rejected == rejects + 1


def _wait_for(predicate) -> None:
    """Poll ``predicate`` for up to 2 s (bounded, never a hang)."""
    pause = threading.Event()
    for _ in range(200):
        if predicate():
            return
        pause.wait(0.01)
    pytest.fail("condition not reached within 2 s")


def test_refused_cache_leader_cancels_its_joined_follower():
    """A blocking submit times out on a full queue while a duplicate
    has joined its flight: the leader is rejected (its caller gets the
    raise), the follower was accepted, so it fails with the leader and
    counts cancelled."""
    pipeline = _SlowPipeline()
    server = PipelineServer(
        pipeline,
        ServingConfig(
            max_batch=1,
            max_wait_ms=0.0,
            queue_capacity=1,
            overflow="block",
            submit_timeout_s=1.0,
            cache="lru",
        ),
    )
    server.start()
    accepted = [server.submit(_image(0.1))]  # held in the flush
    _wait_for(lambda: server.stats().queue_depth == 0)
    accepted.append(server.submit(_image(0.2)))  # fills the queue
    refused: list[BaseException] = []

    def submit_leader() -> None:
        try:
            server.submit(_image(0.3))
        except ServerOverloaded as error:
            refused.append(error)

    leader = threading.Thread(target=submit_leader)
    leader.start()
    _wait_for(lambda: server.stats().cache_misses == 3)
    follower = server.submit(_image(0.3))  # joins the blocked leader
    leader.join(TIMEOUT_S)
    assert not leader.is_alive()
    assert len(refused) == 1
    with pytest.raises(ServerOverloaded):
        follower.result(timeout=TIMEOUT_S)
    pipeline.release.set()
    for handle in accepted:
        handle.result(timeout=TIMEOUT_S)
    server.stop(drain=True, timeout=TIMEOUT_S)
    stats = server.stats()
    assert _ledger_balances(stats), stats
    assert stats.rejected == 1
    assert stats.cancelled == 1
    assert stats.coalesced_joins == 1
    assert stats.cache_misses == 3
    assert stats.completed == 2


class _HeldCrashPipeline(_SlowPipeline):
    """Holds the first flush until released, then kills the batcher."""

    def infer_batch(self, images, qualifier_views=None):
        super().infer_batch(images, qualifier_views)
        raise BatcherCrash("stub crash after hold")


def test_crash_cancels_a_queued_leader_and_its_followers():
    pipeline = _HeldCrashPipeline()
    server = PipelineServer(
        pipeline,
        ServingConfig(
            max_batch=1, max_wait_ms=0.0, queue_capacity=4, cache="lru"
        ),
    )
    server.start()
    handles = [server.submit(_image(0.1))]  # held, then crashes
    _wait_for(lambda: server.stats().queue_depth == 0)
    handles += [server.submit(_image(0.5)) for _ in range(3)]
    assert server.stats().coalesced_joins == 2
    pipeline.release.set()
    for handle in handles:
        with pytest.raises(Exception):
            handle.result(timeout=TIMEOUT_S)
    server.stop(drain=False, timeout=TIMEOUT_S)
    stats = server.stats()
    assert _ledger_balances(stats), stats
    assert stats.cancelled == 4
    assert stats.coalesced_joins == 2
    assert stats.completed == 0


class _FailingPipeline:
    """Every flush fails: exercises leader-failure fan-out."""

    def infer(self, image, qualifier_view=None):
        return _Result(float(image.mean()))

    def infer_batch(self, images, qualifier_views=None):
        raise RuntimeError("stub flush failure")


def test_cache_leader_abort_accounts_followers_as_failed():
    pipeline = _FailingPipeline()
    server = PipelineServer(
        pipeline,
        ServingConfig(
            max_batch=8,
            max_wait_ms=50.0,
            queue_capacity=16,
            cache="lru",
        ),
    )
    server.start()
    image = _image(0.25)
    # Same content: one leader, the rest coalesce onto its flight.
    handles = [server.submit(image) for _ in range(4)]
    for handle in handles:
        with pytest.raises(RuntimeError, match="stub flush failure"):
            handle.result(timeout=TIMEOUT_S)
    server.stop(drain=True, timeout=TIMEOUT_S)
    stats = server.stats()
    assert _ledger_balances(stats), stats
    assert stats.submitted == 4
    assert stats.failed == 4
    assert stats.coalesced_joins == 3
    # A failed flight is never cached.
    assert stats.cache_entries == 0


def test_stop_drain_false_never_hangs_a_handle():
    pipeline = _SlowPipeline()
    server = PipelineServer(
        pipeline,
        ServingConfig(max_batch=2, max_wait_ms=0.0, queue_capacity=8),
    )
    server.start()
    handles = [server.submit(_image(0.1 * i)) for i in range(6)]
    stopper = threading.Thread(
        target=server.stop, kwargs={"drain": False, "timeout": TIMEOUT_S}
    )
    stopper.start()
    pipeline.release.set()
    stopper.join(TIMEOUT_S)
    assert not stopper.is_alive()
    for handle in handles:
        try:
            handle.result(timeout=TIMEOUT_S)
        except TimeoutError:
            pytest.fail("PendingResult hung across non-draining stop")
        except Exception:
            pass  # delivered or explicitly failed: both are legal
    stats = server.stats()
    assert _ledger_balances(stats), stats
