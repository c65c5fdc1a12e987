"""Config validation and dict round-tripping."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    Architecture,
    ChaosConfig,
    PipelineConfig,
    QualifierConfig,
    ServingConfig,
)
from repro.core import HybridPartition


class TestQualifierConfig:
    def test_defaults_mirror_shape_qualifier(self):
        config = QualifierConfig()
        assert config.shape == "octagon"
        assert config.word_length == 32
        assert config.alphabet_size == 8

    @pytest.mark.parametrize("kwargs", [
        {"word_length": 0},
        {"alphabet_size": 1},
        {"alphabet_size": 100},
        {"threshold": -0.1},
        {"n_samples": 16, "word_length": 32},
        {"threshold": float("nan")},
        {"threshold": float("inf")},
        {"edge_threshold": float("nan")},
        {"edge_threshold": float("-inf")},
        {"edge_threshold": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QualifierConfig(**kwargs)

    def test_round_trip(self):
        config = QualifierConfig(threshold=2.5, edge_threshold=0.4)
        clone = QualifierConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            QualifierConfig.from_dict({"worliength": 16})

    def test_from_dict_rejects_retired_redundant_key(self):
        """The batched engine decides redundancy from exact types, so
        a config still carrying ``redundant`` fails loudly instead of
        being silently dropped."""
        data = QualifierConfig().to_dict()
        assert "redundant" not in data
        with pytest.raises(ValueError, match="unknown keys"):
            QualifierConfig.from_dict({**data, "redundant": True})


class TestHybridPartition:
    def test_defaults_are_the_papers_sobel_pair(self):
        partition = HybridPartition()
        assert partition.reliable_filters == {"conv1": (0, 1)}
        assert partition.bifurcation_layer == "conv1"
        assert partition.redundancy == "dmr"

    def test_has_no_engine_field(self):
        assert sorted(HybridPartition().to_dict()) == [
            "bifurcation_layer", "redundancy", "reliable_filters",
        ]
        with pytest.raises(ValueError, match="unknown keys"):
            HybridPartition.from_dict({"engine": "auto"})

    def test_json_lists_normalise_to_tuples(self):
        partition = HybridPartition(reliable_filters={"conv1": [0, 2]})
        assert partition.reliable_filters == {"conv1": (0, 2)}

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridPartition(reliable_filters={"conv2": (0,)})
        with pytest.raises(ValueError):
            HybridPartition(redundancy="qmr")
        with pytest.raises(ValueError, match="unknown keys"):
            HybridPartition.from_dict({"redundnacy": "tmr"})
        for filters in ([1.7, 0], [0.0, 1], "01", [True, 0], 1):
            with pytest.raises(ValueError, match="list of integers"):
                HybridPartition(reliable_filters={"conv1": filters})
        numpy_indices = HybridPartition(
            reliable_filters={"conv1": [np.int64(1), np.uint8(0)]}
        )
        assert numpy_indices.reliable_filters == {"conv1": (1, 0)}

    def test_round_trip(self):
        partition = HybridPartition(
            reliable_filters={"conv1": (1, 3)}, redundancy="tmr"
        )
        clone = HybridPartition.from_dict(
            json.loads(json.dumps(partition.to_dict()))
        )
        assert clone == partition


class TestPipelineConfig:
    def test_architecture_enum_coerces_to_value(self):
        config = PipelineConfig(architecture=Architecture.INTEGRATED)
        assert config.architecture == "integrated"

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(architecture="")
        with pytest.raises(ValueError):
            PipelineConfig(architecture="shadow")
        with pytest.raises(ValueError):
            PipelineConfig(safety_class=-1)
        with pytest.raises(TypeError):
            PipelineConfig(qualifier={"shape": "octagon"})
        with pytest.raises(TypeError):
            PipelineConfig(partition={"bifurcation_layer": "conv1"})

    def test_round_trip_parallel(self):
        config = PipelineConfig(name="rt", safety_class=3)
        clone = PipelineConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config

    def test_round_trip_integrated_with_nested_configs(self):
        config = PipelineConfig(
            architecture="integrated",
            qualifier=QualifierConfig(threshold=2.0),
            partition=HybridPartition(redundancy="tmr"),
            pin_sobel=True,
        )
        clone = PipelineConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config
        assert clone.partition.redundancy == "tmr"


@pytest.mark.parametrize("cls, text", [
    (QualifierConfig, '{"threshold": NaN}'),
    (ServingConfig, '{"max_wait_ms": Infinity}'),
    (ChaosConfig, '{"stall_timeout_s": NaN}'),
])
def test_non_finite_json_values_rejected(cls, text):
    """``json.loads`` accepts ``NaN`` and ``Infinity``, so a config
    file can carry them; ``from_dict`` refuses them like the
    constructor does."""
    with pytest.raises(ValueError, match="finite"):
        cls.from_dict(json.loads(text))
