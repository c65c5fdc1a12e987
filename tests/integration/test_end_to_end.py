"""End-to-end scenarios crossing subsystem boundaries.

Each test tells one complete story a downstream user would live:
train -> configure the hybrid -> ship it through the interchange
format -> run it under faults -> check the safety contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PipelineConfig
from repro.core import (
    Decision,
    IntegratedHybridCNN,
    ParallelHybridCNN,
    ReliabilityGuarantee,
    ShapeQualifier,
)
from repro.data import STOP_CLASS_INDEX, render_sign
from repro.faults.injector import FaultyExecutionUnit
from repro.faults.models import PermanentFault, TransientFault
from repro.hybridir import export_hybrid, load_hybrid, save_hybrid
from repro.models import alexnet_scaled
from repro.reliable.executor import ReliableConv2D
from repro.reliable.operators import RedundantOperator
from repro.reliable.spatial import PEArray, SpatialRedundantOperator
from repro.vision.filters import sobel_axis_stack


@pytest.fixture(scope="module")
def shipped_hybrid(tmp_path_factory):
    """A hybrid built, saved through the IR and reloaded -- the
    deployment path."""
    model = alexnet_scaled(n_classes=8, input_size=128)
    conv1 = model.layer("conv1")
    conv1.set_filter(0, sobel_axis_stack("x", conv1.kernel_size, 3))
    conv1.set_filter(1, sobel_axis_stack("y", conv1.kernel_size, 3))
    graph = export_hybrid(
        model,
        PipelineConfig(
            architecture="integrated", safety_class=STOP_CLASS_INDEX
        ),
        (3, 128, 128),
    )
    base = tmp_path_factory.mktemp("ship") / "stopnet"
    save_hybrid(graph, model, base)
    return load_hybrid(base)


class TestDeploymentRoundTrip:
    def test_reloaded_hybrid_confirms_stop(self, shipped_hybrid):
        result = shipped_hybrid.infer(
            render_sign(0, size=128, rotation=np.deg2rad(4))
        )
        assert result.verdict.matches
        assert result.verdict.distance <= 3.0

    def test_reloaded_hybrid_rejects_circle(self, shipped_hybrid):
        result = shipped_hybrid.infer(render_sign(1, size=128))
        assert not result.verdict.matches
        assert result.decision is not Decision.CONFIRMED


class TestTrainedParallelHybrid:
    """The Figure 1 deployment with an actually trained classifier."""

    def test_full_decision_matrix(self, trained_model):
        qualifier = ShapeQualifier()
        hybrid = ParallelHybridCNN(
            trained_model.model, qualifier, STOP_CLASS_INDEX
        )
        # The classifier sees 32px (its training size); the qualifier
        # needs shape resolution, so feed it the 128px view via the
        # result block directly.
        from repro.nn.layers.activations import softmax

        outcomes = {}
        for class_index in range(8):
            cnn_view = render_sign(class_index, size=32)
            qual_view = render_sign(class_index, size=128)
            logits = trained_model.model.forward(cnn_view[None])
            verdict = qualifier.check(qual_view)
            _, decision = hybrid.result_block.combine(
                softmax(logits)[0], verdict
            )
            outcomes[class_index] = decision
        assert outcomes[STOP_CLASS_INDEX] is Decision.CONFIRMED
        for class_index, decision in outcomes.items():
            if class_index != STOP_CLASS_INDEX:
                assert decision in (
                    Decision.NOT_SAFETY_CRITICAL,
                    # a misclassification towards stop would be
                    # rejected, never confirmed:
                    Decision.REJECTED_BY_QUALIFIER,
                )


class TestFaultedDeployment:
    def test_transients_in_dependable_path_fully_recovered(
        self, shipped_hybrid, rng
    ):
        conv1 = shipped_hybrid.model.layer("conv1")
        clean = shipped_hybrid.infer(
            render_sign(0, size=128, rotation=np.deg2rad(4))
        )
        shipped_hybrid._reliable_conv = ReliableConv2D(
            conv1,
            RedundantOperator(
                FaultyExecutionUnit(TransientFault(1e-5, rng))
            ),
            bucket_ceiling=10_000,
            on_persistent_failure="mark",
        )
        faulted = shipped_hybrid.infer(
            render_sign(0, size=128, rotation=np.deg2rad(4))
        )
        assert faulted.reliable_report.errors_detected > 0
        assert faulted.verdict.matches == clean.verdict.matches
        np.testing.assert_allclose(
            faulted.probabilities, clean.probabilities, rtol=1e-5
        )

    def test_spatial_array_keeps_hybrid_alive_with_dead_pe(
        self, shipped_hybrid, rng
    ):
        from repro.reliable.execution_unit import PerfectExecutionUnit

        units = [PerfectExecutionUnit() for _ in range(4)]
        units[1] = FaultyExecutionUnit(PermanentFault(bit=27, rng=rng))
        array = PEArray(units)
        shipped_hybrid._reliable_conv = ReliableConv2D(
            shipped_hybrid.model.layer("conv1"),
            SpatialRedundantOperator(array),
            bucket_ceiling=100_000,
            on_persistent_failure="mark",
        )
        result = shipped_hybrid.infer(
            render_sign(0, size=128, rotation=np.deg2rad(4))
        )
        assert result.verdict.matches
        assert array.degraded
        assert array.elements[1].retired


class TestGuaranteeConsistency:
    def test_analytic_model_accepts_shipped_configuration(
        self, shipped_hybrid
    ):
        guarantee = ReliabilityGuarantee(
            shipped_hybrid.model,
            (3, 128, 128),
            shipped_hybrid.partition,
            fault_probability=1e-8,
        )
        assert guarantee.protected_path_sdc() < 1e-12
        assert guarantee.improvement_factor() > 1e6
        summary = guarantee.summary()
        assert "improvement factor" in summary
