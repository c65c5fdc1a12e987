"""Hybrid interchange format: schema, export, validation, rebuild."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import PipelineConfig, QualifierConfig, build_pipeline
from repro.core import HybridPartition
from repro.data import render_sign
from repro.hybridir import (
    HybridGraph,
    ValidationError,
    build_hybrid,
    build_model,
    export_hybrid,
    load_hybrid,
    save_hybrid,
    validate_graph,
)
from repro.models import alexnet_scaled, small_cnn
from repro.vision.filters import sobel_axis_stack
from tests.support.fuzz import (
    assert_arrays_bitwise_equal,
    assert_verdicts_bitwise_equal,
)


@pytest.fixture(scope="module")
def live_setup():
    model = small_cnn(32, 8, conv1_filters=4)
    conv1 = model.layer("conv1")
    conv1.set_filter(0, sobel_axis_stack("x", conv1.kernel_size, 3))
    conv1.set_filter(1, sobel_axis_stack("y", conv1.kernel_size, 3))
    config = PipelineConfig(
        architecture="integrated",
        qualifier=QualifierConfig(threshold=2.5),
        partition=HybridPartition(reliable_filters={"conv1": (0, 1)}),
    )
    return model, config


@pytest.fixture(scope="module")
def graph(live_setup):
    model, config = live_setup
    return export_hybrid(model, config, (3, 32, 32))


class TestExport:
    def test_topology_captured(self, graph, live_setup):
        model, _ = live_setup
        assert graph.layer_names() == [layer.name for layer in model]
        conv_node = graph.layers[0]
        assert conv_node.op == "conv2d"
        assert conv_node.attrs["out_channels"] == 4

    def test_reliability_annotation_captured(self, graph):
        config = graph.reliability
        assert config.partition.reliable_filters == {"conv1": (0, 1)}
        assert config.partition.redundancy == "dmr"
        assert config.qualifier.threshold == 2.5
        assert config.qualifier.shape == "octagon"

    def test_json_round_trip(self, graph):
        data = json.loads(json.dumps(graph.to_dict()))
        rebuilt = HybridGraph.from_dict(data)
        assert rebuilt.to_dict() == graph.to_dict()

    # Version 2 stored the partition with an ``engine`` field, and
    # version 3 the qualifier with a ``redundant`` field.
    @pytest.mark.parametrize("version", [2, 3, 999])
    def test_schema_version_enforced(self, graph, version):
        data = graph.to_dict()
        data["schema_version"] = version
        with pytest.raises(ValueError, match=f"schema version {version}"):
            HybridGraph.from_dict(data)


class TestValidation:
    def test_valid_graph_passes(self, graph):
        validate_graph(graph)

    def _mutate(self, graph, fn):
        data = graph.to_dict()
        fn(data)
        return HybridGraph.from_dict(data)

    def test_unknown_op_rejected(self, graph):
        bad = self._mutate(
            graph, lambda d: d["layers"][0].update({"op": "conv9d"})
        )
        with pytest.raises(ValidationError, match="unknown op"):
            validate_graph(bad)

    def test_missing_attr_rejected(self, graph):
        bad = self._mutate(
            graph,
            lambda d: d["layers"][0]["attrs"].pop("stride"),
        )
        with pytest.raises(ValidationError, match="missing attrs"):
            validate_graph(bad)

    def test_channel_mismatch_rejected(self, graph):
        bad = self._mutate(
            graph,
            lambda d: d["layers"][0]["attrs"].update(
                {"in_channels": 5}
            ),
        )
        with pytest.raises(ValidationError, match="channels"):
            validate_graph(bad)

    def test_unknown_reliable_layer_rejected(self, graph):
        def mutate(d):
            partition = d["reliability"]["partition"]
            partition["reliable_filters"] = {"ghost": [0]}
            partition["bifurcation_layer"] = "ghost"

        with pytest.raises(ValidationError, match="unknown layer"):
            validate_graph(self._mutate(graph, mutate))

    def test_non_conv_reliable_layer_rejected(self, graph):
        def mutate(d):
            partition = d["reliability"]["partition"]
            partition["reliable_filters"] = {"relu1": [0]}
            partition["bifurcation_layer"] = "relu1"

        with pytest.raises(ValidationError, match="only conv2d"):
            validate_graph(self._mutate(graph, mutate))

    def test_filter_out_of_range_rejected(self, graph):
        def mutate(d):
            partition = d["reliability"]["partition"]
            partition["reliable_filters"]["conv1"] = [0, 7]

        with pytest.raises(ValidationError, match="outside"):
            validate_graph(self._mutate(graph, mutate))

    def test_safety_class_out_of_range(self, graph):
        def mutate(d):
            d["reliability"]["safety_class"] = 12

        with pytest.raises(ValidationError, match="safety class"):
            validate_graph(self._mutate(graph, mutate))

    def test_bad_qualifier_params_rejected(self, graph):
        """Rules that need no graph are the config's: they fail when
        the graph is read, before it can be validated."""
        def mutate(d):
            d["reliability"]["qualifier"]["word_length"] = 4096

        with pytest.raises(ValueError, match="word_length"):
            self._mutate(graph, mutate)

    def test_parallel_architecture_rejected(self, graph):
        def mutate(d):
            d["reliability"]["architecture"] = "parallel"

        with pytest.raises(ValidationError, match="integrated"):
            validate_graph(self._mutate(graph, mutate))

    def test_duplicate_names_rejected(self, graph):
        def mutate(d):
            d["layers"][1]["name"] = d["layers"][0]["name"]

        with pytest.raises(ValidationError, match="duplicate"):
            validate_graph(self._mutate(graph, mutate))

    @pytest.mark.parametrize("layer, attr, value", [
        ("conv1", "stride", 0),
        ("pool1", "stride", 0),
        ("conv1", "kernel_size", 3.0),
        ("pool1", "pool_size", 0),
        ("conv1", "padding", -1),
        ("fc2", "out_features", True),
        ("conv1", "in_channels", 0),
        ("conv2", "out_channels", -4),
        ("conv2", "kernel_size", 0),
        ("conv2", "padding", 1.5),
        ("pool2", "stride", "2"),
        ("fc1", "in_features", 1024.0),
    ])
    def test_malformed_geometry_rejected(self, graph, layer, attr, value):
        def mutate(d):
            (node,) = [n for n in d["layers"] if n["name"] == layer]
            node["attrs"][attr] = value

        with pytest.raises(ValidationError, match=attr):
            validate_graph(self._mutate(graph, mutate))

    @pytest.mark.parametrize("size", [0, 5.0])
    def test_malformed_lrn_size_rejected(self, graph, size):
        def with_lrn(lrn_size):
            def mutate(d):
                d["layers"].insert(2, {
                    "op": "lrn",
                    "name": "lrn1",
                    "attrs": {"size": lrn_size, "k": 2.0, "alpha": 1e-4,
                              "beta": 0.75},
                })

            return self._mutate(graph, mutate)

        validate_graph(with_lrn(5))
        with pytest.raises(ValidationError, match="lrn1.*size"):
            validate_graph(with_lrn(size))

    def test_fractional_reliable_filters_rejected(self, graph):
        """A filter index must name a filter: ``0.7`` is not rounded
        to filter 0 when the graph is read."""
        def mutate(d):
            partition = d["reliability"]["partition"]
            partition["reliable_filters"]["conv1"] = [0.7, 1]

        with pytest.raises(ValueError, match="list of integers"):
            self._mutate(graph, mutate)


class TestRebuild:
    def test_build_model_matches_topology(self, graph, live_setup):
        model, _ = live_setup
        rebuilt = build_model(graph)
        assert rebuilt.output_shape((3, 32, 32)) == (8,)
        assert [l.name for l in rebuilt] == [l.name for l in model]

    def test_build_hybrid_runs(self, graph):
        hybrid = build_hybrid(graph)
        result = hybrid.infer(
            render_sign(0, size=32).astype(np.float32)
        )
        assert result.decision is not None

    def test_save_load_preserves_weights_and_behaviour(
        self, graph, live_setup, tmp_path
    ):
        model, _ = live_setup
        base = tmp_path / "net"
        save_hybrid(graph, model, base)
        assert (tmp_path / "net.json").exists()
        assert (tmp_path / "net.npz").exists()
        hybrid = load_hybrid(base)
        x = render_sign(3, size=32).astype(np.float32)
        np.testing.assert_allclose(
            hybrid.model.forward(x[None]),
            model.forward(x[None]),
            rtol=1e-6,
        )

    def test_full_alexnet_exports(self):
        model = alexnet_scaled(n_classes=8, input_size=64)
        graph = export_hybrid(
            model, PipelineConfig(architecture="integrated"), (3, 64, 64)
        )
        validate_graph(graph)
        assert len(graph.layers) == len(model)


class TestRoundTrip:
    """The stored config is the one the hybrid was built from: a save
    and load loses no field, and the reloaded hybrid computes the
    same bits as the pipeline that config builds."""

    def test_save_load_is_lossless(self, tmp_path):
        # 16 px keeps the six TMR inferences fast.
        model = small_cnn(16, 8, conv1_filters=4)
        config = PipelineConfig(
            architecture="integrated",
            qualifier=QualifierConfig(threshold=2.5, edge_threshold=0.3),
            partition=HybridPartition(redundancy="tmr"),
            pin_sobel=True,
        )
        pipeline = build_pipeline(config, model)
        graph = export_hybrid(model, config, (3, 16, 16))
        base = tmp_path / "net"
        save_hybrid(graph, model, base)

        with open(tmp_path / "net.json", encoding="utf-8") as handle:
            reloaded = HybridGraph.from_dict(json.load(handle))
        assert reloaded.reliability == config

        hybrid = load_hybrid(base)
        for class_index in (0, 1, 3):
            image = render_sign(class_index, size=16)
            got, want = hybrid.infer(image), pipeline.infer(image)
            assert_arrays_bitwise_equal(
                got.probabilities, want.probabilities, f"sign {class_index}"
            )
            assert_verdicts_bitwise_equal(
                got.verdict, want.verdict, f"sign {class_index}"
            )
            assert got.decision == want.decision
