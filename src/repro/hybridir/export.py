"""Export a live hybrid configuration to the interchange format."""

from __future__ import annotations

import json
import os

from repro.api.config import PipelineConfig
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
from repro.nn.serialize import save_model


def _layer_to_node(layer) -> LayerNode:
    if isinstance(layer, Conv2D):
        return LayerNode("conv2d", layer.name, {
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "kernel_size": layer.kernel_size,
            "stride": layer.stride,
            "padding": layer.padding,
        })
    if isinstance(layer, Dense):
        return LayerNode("dense", layer.name, {
            "in_features": layer.in_features,
            "out_features": layer.out_features,
        })
    if isinstance(layer, ReLU):
        return LayerNode("relu", layer.name)
    if isinstance(layer, Softmax):
        return LayerNode("softmax", layer.name)
    if isinstance(layer, MaxPool2D):
        return LayerNode("maxpool2d", layer.name, {
            "pool_size": layer.pool_size,
            "stride": layer.stride,
        })
    if isinstance(layer, Flatten):
        return LayerNode("flatten", layer.name)
    if isinstance(layer, LocalResponseNorm):
        return LayerNode("lrn", layer.name, {
            "size": layer.size, "k": layer.k,
            "alpha": layer.alpha, "beta": layer.beta,
        })
    if isinstance(layer, Dropout):
        return LayerNode("dropout", layer.name, {"rate": layer.rate})
    raise TypeError(
        f"layer {layer.name!r} ({type(layer).__name__}) has no "
        "interchange-format op"
    )


def export_hybrid(
    model: Sequential,
    config: PipelineConfig,
    input_shape: tuple[int, int, int],
    name: str | None = None,
) -> HybridGraph:
    """Describe an integrated hybrid as a validated :class:`HybridGraph`.

    The graph carries the topology and ``config`` itself as its
    reliability annotation; weights travel separately (see
    :func:`save_hybrid`).  Raises
    :class:`~repro.hybridir.validate.ValidationError` when ``config``
    does not describe an integrated hybrid over ``model``.
    """
    graph = HybridGraph(
        name=name or model.name,
        input_shape=input_shape,
        layers=[_layer_to_node(layer) for layer in model],
        reliability=config,
    )
    validate_graph(graph)
    return graph


def save_hybrid(
    graph: HybridGraph,
    model: Sequential,
    path: str | os.PathLike,
) -> None:
    """Write ``<path>.json`` (graph) and ``<path>.npz`` (weights)."""
    base = os.fspath(path)
    weights_file = base + ".npz"
    save_model(model, weights_file)
    graph.weights_file = os.path.basename(weights_file)
    with open(base + ".json", "w", encoding="utf-8") as handle:
        json.dump(graph.to_dict(), handle, indent=2)
