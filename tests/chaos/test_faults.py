"""ChaosConfig validation and the seeded fault planner.

A chaos plan must be a pure function of (config, rng state): same
seed, same schedule, bit for bit -- that is what makes chaos trials
campaign-grade reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ChaosConfig
from repro.chaos import (
    ABSORBABLE_FAULTS,
    ChaosError,
    FaultEvent,
    FaultType,
    ServiceFaultInjector,
)
from repro.serving.server import BatcherCrash


def _storm_config(**overrides) -> ChaosConfig:
    fields = dict(
        latency_spikes=2,
        timeouts=1,
        batcher_crashes=1,
        queue_exhaustion_bursts=1,
        corrupt_payloads=3,
        corrupt_bits=2,
    )
    fields.update(overrides)
    return ChaosConfig(**fields)


class TestChaosConfig:
    def test_defaults_are_quiet(self):
        config = ChaosConfig()
        assert config.total_events == 0
        assert config.server_events == 0
        assert config.disruptive_events == 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("latency_spikes", -1),
            ("timeouts", -1),
            ("batcher_crashes", -2),
            ("queue_exhaustion_bursts", -1),
            ("corrupt_payloads", -1),
            ("latency_ms", -0.5),
            ("burst_overflow", 0),
            ("corrupt_bits", 0),
            ("stall_timeout_s", 0.0),
            ("latency_ms", float("nan")),
            ("latency_ms", float("inf")),
            ("stall_timeout_s", float("nan")),
            ("stall_timeout_s", float("inf")),
        ],
    )
    def test_validation_rejects(self, field, value):
        with pytest.raises(ValueError):
            ChaosConfig(**{field: value})

    def test_event_arithmetic(self):
        config = _storm_config()
        assert config.server_events == 4  # spikes + timeouts + crashes
        assert config.total_events == 8
        # Disruptive excludes the absorbable spike count.
        assert config.disruptive_events == 3

    def test_dict_round_trip(self):
        config = _storm_config(latency_ms=7.5, stall_timeout_s=9.0)
        assert ChaosConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        payload = ChaosConfig().to_dict()
        payload["latency_spikez"] = 3
        with pytest.raises(ValueError, match="latency_spikez"):
            ChaosConfig.from_dict(payload)


class TestChaosPlan:
    def test_same_seed_same_plan(self):
        config = _storm_config()
        plans = [
            ServiceFaultInjector(
                config, np.random.default_rng(11)
            ).plan(12, 1200)
            for _ in range(2)
        ]
        assert plans[0] == plans[1]
        assert plans[0].to_dict() == plans[1].to_dict()

    def test_different_seed_different_schedule(self):
        config = _storm_config()
        a = ServiceFaultInjector(
            config, np.random.default_rng(0)
        ).plan(12, 1200)
        b = ServiceFaultInjector(
            config, np.random.default_rng(1)
        ).plan(12, 1200)
        # Counts are config-determined either way...
        assert a.counts == b.counts
        # ...but the drawn schedule (delays, orders, bit positions)
        # comes from the stream.
        assert a != b

    def test_plan_counts_match_config(self):
        config = _storm_config()
        plan = ServiceFaultInjector(
            config, np.random.default_rng(5)
        ).plan(10, 300)
        assert len(plan.server_events) == config.server_events
        assert len(plan.corruptions) == 3
        assert plan.bursts == 1
        assert plan.expected_rejections == config.burst_overflow
        assert plan.total_events == config.total_events
        assert plan.disruptive_events == config.disruptive_events

    def test_corruptions_clamped_and_in_range(self):
        config = ChaosConfig(corrupt_payloads=50, corrupt_bits=4)
        plan = ServiceFaultInjector(
            config, np.random.default_rng(9)
        ).plan(6, 100)
        assert len(plan.corruptions) == 6  # clamped to n_requests
        indices = [e.request_index for e in plan.corruptions]
        assert indices == sorted(set(indices))
        for event in plan.corruptions:
            assert len(event.bits) == 4
            for word, bit in event.bits:
                assert 0 <= word < 100
                assert 0 <= bit < 32

    def test_metrics_are_deterministic_floats(self):
        plan = ServiceFaultInjector(
            _storm_config(), np.random.default_rng(2)
        ).plan(12, 1200)
        metrics = plan.to_metrics()
        assert metrics["n_requests"] == 12.0
        assert metrics["planned_batcher_crash"] == 1.0
        assert metrics["expected_rejections"] == 3.0
        assert all(isinstance(v, float) for v in metrics.values())

    def test_plan_rejects_degenerate_inputs(self):
        injector = ServiceFaultInjector(
            ChaosConfig(), np.random.default_rng(0)
        )
        with pytest.raises(ChaosError):
            injector.plan(0, 10)
        with pytest.raises(ChaosError):
            injector.plan(10, 0)


class TestInjectorFiring:
    def test_arm_rejects_client_side_faults(self):
        injector = ServiceFaultInjector(
            ChaosConfig(), np.random.default_rng(0)
        )
        with pytest.raises(ChaosError):
            injector.arm(FaultEvent(FaultType.PAYLOAD_CORRUPTION))
        with pytest.raises(ChaosError):
            injector.arm(FaultEvent(FaultType.QUEUE_EXHAUSTION))

    def test_events_fire_exactly_once_in_order(self):
        injector = ServiceFaultInjector(
            ChaosConfig(timeouts=1, batcher_crashes=1),
            np.random.default_rng(0),
        )
        injector.arm(FaultEvent(FaultType.TIMEOUT))
        injector.arm(FaultEvent(FaultType.BATCHER_CRASH))
        with pytest.raises(Exception, match="timeout"):
            injector.on_flush()
        with pytest.raises(BatcherCrash):
            injector.on_flush()
        injector.on_flush()  # queue drained: a no-op

    def test_stall_gate_is_bounded(self):
        injector = ServiceFaultInjector(
            ChaosConfig(stall_timeout_s=0.05), np.random.default_rng(0)
        )
        injector.request_stall()
        # Never released: the bounded gate must self-open rather than
        # park the batcher forever.
        injector.on_flush()
        assert injector.wait_stalled(0.0)

    def test_release_all_clears_pending_stall(self):
        injector = ServiceFaultInjector(
            ChaosConfig(), np.random.default_rng(0)
        )
        injector.request_stall()
        injector.release_all()
        injector.on_flush()  # returns immediately: nothing pending

    def test_absorbable_set(self):
        assert FaultType.LATENCY_SPIKE in ABSORBABLE_FAULTS
        assert FaultType.PAYLOAD_CORRUPTION in ABSORBABLE_FAULTS
        assert FaultType.BATCHER_CRASH not in ABSORBABLE_FAULTS
