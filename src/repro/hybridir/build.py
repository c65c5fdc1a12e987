"""Rebuild running hybrids from the interchange format."""

from __future__ import annotations

import json
import os

import numpy as np

from repro.api import build_pipeline
from repro.core.hybrid import IntegratedHybridCNN
from repro.hybridir.schema import HybridGraph, LayerNode
from repro.hybridir.validate import validate_graph
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.nn.network import Sequential
from repro.nn.serialize import load_model


def _node_to_layer(node: LayerNode, rng: np.random.Generator):
    attrs = node.attrs
    if node.op == "conv2d":
        return Conv2D(
            attrs["in_channels"], attrs["out_channels"],
            attrs["kernel_size"], stride=attrs["stride"],
            padding=attrs["padding"], rng=rng, name=node.name,
        )
    if node.op == "dense":
        return Dense(
            attrs["in_features"], attrs["out_features"],
            rng=rng, name=node.name,
        )
    if node.op == "relu":
        return ReLU(name=node.name)
    if node.op == "softmax":
        return Softmax(name=node.name)
    if node.op == "maxpool2d":
        return MaxPool2D(
            attrs["pool_size"], stride=attrs["stride"], name=node.name
        )
    if node.op == "flatten":
        return Flatten(name=node.name)
    if node.op == "lrn":
        return LocalResponseNorm(
            size=attrs["size"], k=attrs["k"],
            alpha=attrs["alpha"], beta=attrs["beta"], name=node.name,
        )
    if node.op == "dropout":
        return Dropout(attrs["rate"], rng=rng, name=node.name)
    raise ValueError(f"unknown op {node.op!r} in node {node.name!r}")


def build_model(
    graph: HybridGraph, rng: np.random.Generator | None = None
) -> Sequential:
    """Instantiate the topology (fresh weights) from a graph."""
    validate_graph(graph)
    rng = rng or np.random.default_rng(0)
    layers = [_node_to_layer(node, rng) for node in graph.layers]
    return Sequential(layers, name=graph.name)


def build_hybrid(
    graph: HybridGraph,
    model: Sequential | None = None,
    rng: np.random.Generator | None = None,
) -> IntegratedHybridCNN:
    """Instantiate the full integrated hybrid a graph describes, by
    building its :attr:`~repro.hybridir.schema.HybridGraph.reliability`
    config through the pipeline layer -- so interchange files
    construct exactly like hand-written configs."""
    if model is None:
        model = build_model(graph, rng)  # validates the graph
    else:
        validate_graph(graph)
    return build_pipeline(graph.reliability, model).hybrid


def load_hybrid(path: str | os.PathLike) -> IntegratedHybridCNN:
    """Load ``<path>.json`` (+ weights sidecar) into a running hybrid."""
    base = os.fspath(path)
    with open(base + ".json", encoding="utf-8") as handle:
        graph = HybridGraph.from_dict(json.load(handle))
    model = build_model(graph)
    if graph.weights_file:
        weights_path = os.path.join(
            os.path.dirname(base) or ".", graph.weights_file
        )
        load_model(model, weights_path)
    return build_hybrid(graph, model=model)
