"""Declarative chaos experiments with machine-checked postconditions.

A :class:`ChaosExperiment` drives a :class:`~repro.serving.server.
PipelineServer` (wrapped in a :class:`~repro.chaos.proxy.
ChaosPipelineProxy`) through a planned fault schedule, then asserts
the serving invariants every run must uphold *no matter which faults
fired*:

* **Full accounting** -- ``submitted == completed + failed +
  cancelled`` on the server's own ledger, with rejects counted
  separately, and the ledger agreeing with the driver's view of every
  submission it made.
* **No silent drops or hangs** -- every ``PendingResult`` completes
  (result or explicit error) within the experiment timeout.
* **Backpressure holds exactly** -- each queue-exhaustion burst is
  refused precisely ``burst_overflow`` times, never silently dropped.
* **Degradation routing holds** -- the hook fires once per flagged
  delivery, matching both the driver's count and the ledger.
* **Bitwise serial parity** -- every delivered result is
  bit-for-bit what serial ``infer()`` produces on the same payload
  (including deliberately corrupted payloads).

Violations are collected, not raised: the experiment always returns a
:class:`ChaosReport`, whose outcome uses the campaign vocabulary
(:data:`repro.campaigns.report.OUTCOME_ORDER`) so chaos trials drop
straight into the existing campaign machinery.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.api.config import ChaosConfig
from repro.chaos.faults import (
    ChaosError,
    ChaosPlan,
    ChaosTimeout,
    FaultType,
    ServiceFaultInjector,
)
from repro.chaos.proxy import ChaosPipelineProxy
from repro.data.signs import SIGN_CLASSES, render_sign
from repro.serving.config import ServingConfig
from repro.serving.server import (
    PipelineServer,
    ServerClosed,
    ServerError,
    ServerOverloaded,
)


def _corrupted(image: np.ndarray, bits) -> np.ndarray:
    """Apply planned storage-bit flips to a float32 copy of ``image``.

    The copy is what gets submitted *and* what the serial parity
    oracle sees, so corruption never breaks parity -- it only tests
    that the server serves hostile payloads exactly like ``infer()``.
    """
    payload = np.ascontiguousarray(image, dtype=np.float32).copy()
    words = payload.view(np.uint32).reshape(-1)
    for word, bit in bits:
        words[word] ^= np.uint32(1) << np.uint32(bit)
    return payload


def _bitwise_equal(served, serial) -> bool:
    """Bit-for-bit equality of two HybridResults (the serving parity
    contract; mirrors tests/serving/test_determinism.py)."""
    if (
        np.asarray(served.probabilities).tobytes()
        != np.asarray(serial.probabilities).tobytes()
    ):
        return False
    if served.predicted_class != serial.predicted_class:
        return False
    if served.decision != serial.decision:
        return False
    sv, lv = served.verdict, serial.verdict
    if (sv is None) != (lv is None):
        return False
    if sv is not None:
        if (
            sv.matches != lv.matches
            or sv.word != lv.word
            or sv.reliable != lv.reliable
            or np.float64(sv.distance).tobytes()
            != np.float64(lv.distance).tobytes()
        ):
            return False
    sr, lr = served.reliable_report, serial.reliable_report
    if (sr is None) != (lr is None):
        return False
    return sr is None or (
        sr.operations, sr.errors_detected, sr.rollbacks,
        sr.persistent_failures, sr.operator_kind, sr.failed_outputs,
    ) == (
        lr.operations, lr.errors_detected, lr.rollbacks,
        lr.persistent_failures, lr.operator_kind, lr.failed_outputs,
    )


@dataclass(frozen=True, kw_only=True)
class ChaosReport:
    """What one chaos experiment planned, observed and concluded."""

    plan: ChaosPlan
    #: Invariant name -> held?  (the machine-checked postconditions).
    invariants: dict[str, bool]
    #: Tags for every invariant that failed (empty == healthy run).
    violations: tuple[str, ...]
    #: Campaign outcome label (see OUTCOME_ORDER): clean / masked /
    #: detected_recovered / detected_aborted / silent_corruption.
    outcome: str
    #: Crash-recovery restarts the driver performed.
    restarts: int
    #: Driver-side tallies (timing-dependent; never fingerprinted).
    delivered: int
    failed: int
    cancelled: int
    rejected: int
    refused_closed: int
    parity_checked: int
    elapsed_seconds: float
    #: Final ServerStats snapshot as a dict (timing-dependent).
    stats: dict = field(default_factory=dict)

    @property
    def invariants_hold(self) -> bool:
        return not self.violations

    def deterministic_metrics(self) -> dict[str, float]:
        """The metrics safe to put in a fingerprinted TrialRecord:
        pure functions of the plan, never of thread timing."""
        return self.plan.to_metrics()

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "invariants": dict(sorted(self.invariants.items())),
            "violations": list(self.violations),
            "outcome": self.outcome,
            "restarts": self.restarts,
            "delivered": self.delivered,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "refused_closed": self.refused_closed,
            "parity_checked": self.parity_checked,
            "elapsed_seconds": self.elapsed_seconds,
            "stats": self.stats,
        }


@dataclass(frozen=True, kw_only=True)
class ChaosExperiment:
    """One declarative serving-chaos scenario.

    Attributes
    ----------
    chaos:
        The fault load (:class:`~repro.api.config.ChaosConfig`).
    serving:
        Server wiring; None uses :meth:`serving_config`'s chaos-ready
        default (``overflow="reject"``, ``max_wait_ms=0`` -- the
        combination queue-exhaustion bursts require for an *exact*
        rejection count).
    n_requests:
        Base traffic volume (excludes burst traffic).  Every third
        request duplicates its predecessor so cache-enabled runs
        exercise hits and in-flight joins under fault fire.
    threads:
        Concurrent submitter threads for base traffic.
    image_size:
        Rendered sign edge length (small = fast trials).
    cache:
        Response-cache mode for the default serving config
        (``"off"`` or ``"lru"``).
    timeout_s:
        Per-handle ``result()`` bound and stop bound; exceeding it is
        the *hung* violation, the one failure mode chaos must never
        let pass silently.
    """

    chaos: ChaosConfig
    serving: ServingConfig | None = None
    n_requests: int = 12
    threads: int = 2
    image_size: int = 20
    cache: str = "off"
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    def serving_config(self) -> ServingConfig:
        """The server wiring this experiment drives."""
        if self.serving is not None:
            return self.serving
        return ServingConfig(
            max_batch=8,
            max_wait_ms=0.0,
            queue_capacity=max(8, self.n_requests + self.threads + 4),
            overflow="reject",
            cache=self.cache,
        )

    # -- traffic ---------------------------------------------------------
    def _images(self) -> list[np.ndarray]:
        images: list[np.ndarray] = []
        for i in range(self.n_requests):
            if i % 3 == 2:
                # Duplicate the predecessor: cache-hit / join traffic.
                images.append(images[i - 1])
            else:
                images.append(
                    render_sign(
                        i % len(SIGN_CLASSES),
                        size=self.image_size,
                        rotation=0.03 * i,
                    )
                )
        return images

    # -- run -------------------------------------------------------------
    def run(
        self, pipeline, rng: np.random.Generator
    ) -> ChaosReport:
        """Execute the scenario and check every postcondition.

        ``rng`` seeds the fault schedule only; traffic content is
        fixed by the experiment fields, so the whole run is a pure
        function of ``(experiment, pipeline, rng state)``.
        """
        serving = self.serving_config()
        if self.chaos.queue_exhaustion_bursts and (
            serving.overflow != "reject" or serving.max_wait_ms != 0
        ):
            raise ChaosError(
                "queue-exhaustion bursts need overflow='reject' and "
                "max_wait_ms=0 for a deterministic rejection count"
            )
        injector = ServiceFaultInjector(self.chaos, rng)
        images = self._images()
        plan = injector.plan(self.n_requests, int(images[0].size))
        if len(plan.server_events) > self.n_requests:
            raise ChaosError(
                f"{len(plan.server_events)} server-side events need at "
                f"least as many base requests (got {self.n_requests})"
            )
        payloads = list(images)
        for event in plan.corruptions:
            payloads[event.request_index] = _corrupted(
                images[event.request_index], event.bits
            )

        hook_calls = [0]
        hook_lock = threading.Lock()

        def on_degraded(result) -> None:
            with hook_lock:
                hook_calls[0] += 1

        proxy = ChaosPipelineProxy(pipeline, injector)
        server = PipelineServer(proxy, serving, on_degraded=on_degraded)
        violations: list[str] = []
        outcomes: list[tuple[int, object]] = []  # (request index, handle)
        refused_closed = 0
        rejected = 0
        restarts = 0
        started = time.perf_counter()
        server.start()
        pool = ThreadPoolExecutor(max_workers=self.threads)
        try:
            # Base traffic in phases: one armed server-side event per
            # phase, so each fires exactly once (on the phase's first
            # flush) and crash recovery happens at a planned point.
            n_phases = max(1, len(plan.server_events))
            bounds = [
                (
                    p * self.n_requests // n_phases,
                    (p + 1) * self.n_requests // n_phases,
                )
                for p in range(n_phases)
            ]
            for phase, (lo, hi) in enumerate(bounds):
                event = (
                    plan.server_events[phase]
                    if phase < len(plan.server_events)
                    else None
                )
                if event is not None:
                    injector.arm(event)

                def _submit(index: int):
                    # The phase's first request bypasses the cache so
                    # at least one flush happens and the armed event
                    # cannot leak into a later phase.
                    return server.submit(
                        payloads[index], use_cache=index != lo
                    )
                futures = [
                    (i, pool.submit(_submit, i)) for i in range(lo, hi)
                ]
                refused: list[int] = []
                for index, future in futures:
                    try:
                        outcomes.append((index, future.result()))
                    except ServerOverloaded:
                        # Base traffic fits the queue by construction;
                        # a reject here is an accounting violation.
                        rejected += 1
                        violations.append("unplanned_rejection")
                    except ServerClosed:
                        # Raced the phase's crash: refused at the
                        # gate, never accepted -- legal, tracked, and
                        # retried after the recovery restart below.
                        refused_closed += 1
                        refused.append(index)
                # Phase barrier: settle every handle before deciding
                # whether a recovery restart is due.
                self._await_all(outcomes, violations)
                crashed = (
                    event is not None
                    and event.fault is FaultType.BATCHER_CRASH
                )
                if crashed:
                    # Recover at the *planned* point, keyed off the
                    # plan (not the racy ``running`` flag): stop the
                    # dead batcher cleanly, then restart.
                    server.stop(drain=False, timeout=self.timeout_s)
                    server.start()
                    restarts += 1
                elif not server.running:
                    violations.append("unexpected_batcher_death")
                    server.stop(drain=False, timeout=self.timeout_s)
                    server.start()
                    restarts += 1
                if restarts and refused:
                    # Gate-refused submissions were never accepted;
                    # retry them on the restarted server so crash
                    # trials exercise post-recovery serving too.
                    for index in refused:
                        try:
                            outcomes.append(
                                (index, server.submit(payloads[index]))
                            )
                        except (ServerOverloaded, ServerClosed):
                            violations.append("restart_refused_retry")
                    self._await_all(outcomes, violations)

            # Queue-exhaustion bursts: park the batcher mid-flush so
            # the queue fills deterministically, then overfill it by
            # exactly burst_overflow.
            capacity = serving.queue_capacity
            for burst in range(plan.bursts):
                injector.request_stall()
                trigger = server.submit(
                    payloads[burst % self.n_requests], use_cache=False
                )
                if not injector.wait_stalled(self.timeout_s):
                    violations.append("burst_stall_never_reached")
                    injector.release_all()
                    break
                burst_handles: list[tuple[int, object]] = [(-1, trigger)]
                for j in range(capacity + self.chaos.burst_overflow):
                    try:
                        burst_handles.append(
                            (
                                -1,
                                server.submit(
                                    payloads[j % self.n_requests],
                                    use_cache=False,
                                ),
                            )
                        )
                    except ServerOverloaded:
                        rejected += 1
                injector.release_stall()
                self._await_all(burst_handles, violations)
                outcomes.extend(burst_handles)
        finally:
            pool.shutdown(wait=True)
            injector.release_all()
            stop_failed = False
            try:
                server.stop(drain=True, timeout=self.timeout_s)
            except ServerError:
                stop_failed = True
                violations.append("stop_failed")

        # -- postconditions ---------------------------------------------
        delivered = failed = cancelled = 0
        parity_checked = 0
        flagged_delivered = 0
        for index, handle in outcomes:
            kind, result = self._settle(handle)
            if kind == "hung":
                continue  # already tagged by _await_all
            if kind == "failed":
                failed += 1
            elif kind == "cancelled":
                cancelled += 1
            else:
                delivered += 1
                if getattr(result, "flagged", False):
                    flagged_delivered += 1
                if index >= 0:
                    parity_checked += 1
                    if not _bitwise_equal(
                        result, proxy.infer(payloads[index])
                    ):
                        violations.append("parity_mismatch")

        stats = server.stats()
        invariants = {
            "accounting_balances": (
                stats.submitted
                == stats.completed + stats.failed + stats.cancelled
            ),
            "ledger_matches_driver": (
                stats.submitted == len(outcomes)
                and stats.rejected == rejected
            ),
            "no_hung_pending": "hung_pending" not in violations,
            "delivered_parity": "parity_mismatch" not in violations,
            "degradation_routing": (
                hook_calls[0] == flagged_delivered
                and stats.degraded == flagged_delivered
            ),
            "backpressure_exact": rejected == plan.expected_rejections,
            "clean_stop": not stop_failed,
        }
        for name, held in invariants.items():
            if not held and name not in (
                "no_hung_pending",
                "delivered_parity",
                "clean_stop",
            ):
                violations.append(f"violated:{name}")

        outcome = self._classify(plan, violations)
        return ChaosReport(
            plan=plan,
            invariants=invariants,
            violations=tuple(dict.fromkeys(violations)),
            outcome=outcome,
            restarts=restarts,
            delivered=delivered,
            failed=failed,
            cancelled=cancelled,
            rejected=rejected,
            refused_closed=refused_closed,
            parity_checked=parity_checked,
            elapsed_seconds=time.perf_counter() - started,
            stats=stats.to_dict(),
        )

    # -- helpers ---------------------------------------------------------
    def _await_all(self, handles, violations: list[str]) -> None:
        """Settle every handle within the bound; a timeout is the
        hung-pending violation (the invariant chaos exists to catch)."""
        for _, handle in handles:
            try:
                handle.result(timeout=self.timeout_s)
            except TimeoutError:
                violations.append("hung_pending")
            except Exception:
                pass  # explicit failure: accounted in _settle

    @staticmethod
    def _settle(handle) -> tuple[str, object]:
        """Classify a settled handle: delivered / failed (explicit
        demuxed error) / cancelled (stop or crash sweep) / hung."""
        try:
            return "delivered", handle.result(timeout=0)
        except TimeoutError:
            return "hung", None
        except (ServerClosed, ServerError):
            return "cancelled", None
        except Exception:
            return "failed", None

    @staticmethod
    def _classify(plan: ChaosPlan, violations: list[str]) -> str:
        if "hung_pending" in violations or "stop_failed" in violations:
            return "detected_aborted"
        if violations:
            return "silent_corruption"
        if plan.total_events == 0:
            return "clean"
        if plan.disruptive_events == 0:
            return "masked"
        return "detected_recovered"
