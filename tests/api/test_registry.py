"""Registry semantics and pluggable extension scenarios."""

from __future__ import annotations

import pytest

from repro.api import (
    OPERATORS,
    Registry,
    RegistryError,
    build_baseline,
    build_operator,
)
from repro.baselines import ActivationRangeGuard, OutputCage
from repro.models import small_cnn
from repro.reliable.operators import (
    PlainOperator,
    RedundantOperator,
    TMROperator,
)


class TestRegistry:
    def test_register_as_decorator_and_call(self):
        reg = Registry("thing")

        @reg.register("a")
        def build_a():
            return "a"

        reg.register("b", lambda: "b")
        assert reg.get("a")() == "a"
        assert reg.get("b")() == "b"
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2

    def test_duplicate_requires_overwrite(self):
        reg = Registry("thing")
        reg.register("x", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("x", lambda: 2)
        reg.register("x", lambda: 2, overwrite=True)
        assert reg.get("x")() == 2

    def test_unknown_key_lists_choices(self):
        reg = Registry("axis")
        reg.register("known", lambda: None)
        with pytest.raises(RegistryError, match="known"):
            reg.get("missing")

    def test_invalid_key(self):
        with pytest.raises(ValueError):
            Registry("thing").register("", lambda: None)


class TestBuiltinRegistrations:
    def test_operators_back_the_reliable_kinds(self):
        assert isinstance(build_operator("plain"), PlainOperator)
        assert isinstance(build_operator("dmr"), RedundantOperator)
        assert isinstance(build_operator("redundant"), RedundantOperator)
        assert isinstance(build_operator("tmr"), TMROperator)

    def test_baselines(self):
        model = small_cnn(32, 8, conv1_filters=4)
        assert isinstance(build_baseline("ranger", model),
                          ActivationRangeGuard)
        assert isinstance(
            build_baseline("caging", model, min_confidence_quantile=0.05),
            OutputCage,
        )


class TestPluggableOperator:
    """OPERATORS feeds the factory table every kind-string surface
    reads: make_operator, ReliableConv2D, HybridPartition."""

    def test_registered_operator_reaches_partition_and_executor(self):
        from repro.core import HybridPartition
        from repro.reliable.operators import (
            _OPERATOR_KINDS,
            RedundantOperator,
            make_operator,
        )

        class QuadOperator(RedundantOperator):
            executions_per_op = 4

        try:
            OPERATORS.register("qmr-test", QuadOperator)
            assert "qmr-test" in OPERATORS
            assert isinstance(build_operator("qmr-test"), QuadOperator)
            assert isinstance(make_operator("qmr-test"), QuadOperator)
            partition = HybridPartition(redundancy="qmr-test")
            assert partition.redundancy_multiplier() == 4
        finally:
            _OPERATOR_KINDS.pop("qmr-test", None)

    def test_factory_table_registrations_visible_in_registry(self):
        """Sync is two-way: OPERATORS is a live view, not a copy."""
        from repro.reliable.operators import (
            _OPERATOR_KINDS,
            RedundantOperator,
            register_operator,
        )

        try:
            register_operator("table-side-test", RedundantOperator)
            assert "table-side-test" in OPERATORS
            assert isinstance(build_operator("table-side-test"),
                              RedundantOperator)
        finally:
            _OPERATOR_KINDS.pop("table-side-test", None)

    def test_duplicate_kind_rejected_across_layers(self):
        from repro.reliable.operators import RedundantOperator

        with pytest.raises(RegistryError, match="already registered"):
            OPERATORS.register("dmr", RedundantOperator)
