"""Config validation and dict round-tripping."""

from __future__ import annotations

import json

import pytest

from repro.api import Architecture, PipelineConfig, QualifierConfig
from repro.core import HybridPartition


class TestQualifierConfig:
    def test_defaults_mirror_shape_qualifier(self):
        config = QualifierConfig()
        assert config.shape == "octagon"
        assert config.word_length == 32
        assert config.alphabet_size == 8
        assert config.redundant is True

    @pytest.mark.parametrize("kwargs", [
        {"word_length": 0},
        {"alphabet_size": 1},
        {"alphabet_size": 100},
        {"threshold": -0.1},
        {"n_samples": 16, "word_length": 32},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QualifierConfig(**kwargs)

    def test_round_trip(self):
        config = QualifierConfig(threshold=2.5, redundant=False,
                                 edge_threshold=0.4)
        clone = QualifierConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            QualifierConfig.from_dict({"worliength": 16})


class TestHybridPartition:
    def test_defaults_are_the_papers_sobel_pair(self):
        partition = HybridPartition()
        assert partition.reliable_filters == {"conv1": (0, 1)}
        assert partition.bifurcation_layer == "conv1"
        assert partition.redundancy == "dmr"

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


class TestPartitionEngineField:
    def test_default_is_auto(self):
        assert HybridPartition().engine == "auto"

    def test_explicit_engine_round_trips(self):
        config = HybridPartition(engine="vectorized")
        clone = HybridPartition.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config
        assert clone.engine == "vectorized"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            HybridPartition(engine="warp-drive")

    def test_scalar_engine_reaches_reliable_executor(self):
        from repro.api import PipelineConfig, build_pipeline
        from repro.models import small_cnn

        pipeline = build_pipeline(
            PipelineConfig(
                architecture="integrated",
                partition=HybridPartition(engine="scalar"),
            ),
            small_cnn(32, 8, conv1_filters=8),
        )
        assert pipeline.hybrid._reliable_conv.engine == "scalar"
