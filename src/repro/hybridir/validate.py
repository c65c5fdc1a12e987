"""Structural validation of hybrid graphs.

A graph is checked *before* instantiation so a toolchain consuming
the format can reject malformed descriptions with actionable errors
-- the role ONNX checker plays for plain graphs, extended with the
facts that tie the hybrid's wiring to this graph:

* shape inference succeeds end to end (channel/feature mismatches
  between consecutive nodes are caught here);
* every reliable layer exists, is a conv2d, and owns every filter
  index the partition claims;
* the safety class fits the classifier head;
* the architecture is ``"integrated"``, the one the format describes.

Rules that need no graph -- redundancy kinds, duplicate filters,
qualifier parameter ranges -- are enforced by the config classes
when :attr:`~repro.hybridir.schema.HybridGraph.reliability` is built.
"""

from __future__ import annotations

from repro.api.config import Architecture
from repro.core.partition import HybridPartition
from repro.hybridir import schema
from repro.hybridir.schema import HybridGraph, LayerNode


class ValidationError(ValueError):
    """A hybrid graph failed structural validation."""


def _check_node(node: LayerNode) -> None:
    if node.op not in schema.OP_ATTRS:
        raise ValidationError(
            f"node {node.name!r}: unknown op {node.op!r}"
        )
    expected = set(schema.OP_ATTRS[node.op])
    actual = set(node.attrs)
    missing = expected - actual
    extra = actual - expected
    if missing:
        raise ValidationError(
            f"node {node.name!r}: missing attrs {sorted(missing)}"
        )
    if extra:
        raise ValidationError(
            f"node {node.name!r}: unexpected attrs {sorted(extra)}"
        )


def _infer_shapes(graph: HybridGraph) -> list[tuple[int, ...]]:
    """Shape-infer through the node list; raises on mismatch."""
    shape: tuple[int, ...] = tuple(graph.input_shape)
    shapes = [shape]
    for node in graph.layers:
        attrs = node.attrs
        if node.op == "conv2d":
            c, h, w = _expect_rank(shape, 3, node)
            if c != attrs["in_channels"]:
                raise ValidationError(
                    f"node {node.name!r}: expects "
                    f"{attrs['in_channels']} channels, gets {c}"
                )
            out_h = _conv_size(h, attrs, node)
            out_w = _conv_size(w, attrs, node)
            shape = (attrs["out_channels"], out_h, out_w)
        elif node.op == "maxpool2d":
            c, h, w = _expect_rank(shape, 3, node)
            pool, stride = attrs["pool_size"], attrs["stride"]
            out_h = (h - pool) // stride + 1
            out_w = (w - pool) // stride + 1
            if out_h <= 0 or out_w <= 0:
                raise ValidationError(
                    f"node {node.name!r}: pooling empties the tensor"
                )
            shape = (c, out_h, out_w)
        elif node.op == "flatten":
            total = 1
            for dim in shape:
                total *= dim
            shape = (total,)
        elif node.op == "dense":
            (features,) = _expect_rank(shape, 1, node)
            if features != attrs["in_features"]:
                raise ValidationError(
                    f"node {node.name!r}: expects "
                    f"{attrs['in_features']} features, gets {features}"
                )
            shape = (attrs["out_features"],)
        # relu/softmax/lrn/dropout preserve shape
        shapes.append(shape)
    return shapes


def _conv_size(size: int, attrs: dict, node: LayerNode) -> int:
    out = (size + 2 * attrs["padding"] - attrs["kernel_size"]) \
        // attrs["stride"] + 1
    if out <= 0:
        raise ValidationError(
            f"node {node.name!r}: convolution empties the tensor"
        )
    return out


def _expect_rank(shape: tuple[int, ...], rank: int, node: LayerNode):
    if len(shape) != rank:
        raise ValidationError(
            f"node {node.name!r}: expects rank-{rank} input, "
            f"gets shape {shape}"
        )
    return shape


def validate_graph(graph: HybridGraph) -> None:
    """Validate topology and its fit to the hybrid's wiring; raises
    :class:`ValidationError` with a precise message on failure."""
    if not graph.layers:
        raise ValidationError("graph has no layers")
    names = graph.layer_names()
    if len(set(names)) != len(names):
        raise ValidationError("duplicate layer names")
    if len(graph.input_shape) != 3:
        raise ValidationError("input_shape must be (channels, h, w)")
    for node in graph.layers:
        _check_node(node)
    shapes = _infer_shapes(graph)

    config = graph.reliability
    if config.architecture != Architecture.INTEGRATED.value:
        raise ValidationError(
            f"architecture {config.architecture!r}: hybrid graphs "
            "describe integrated hybrids"
        )
    partition = config.partition or HybridPartition()
    by_name = {node.name: node for node in graph.layers}
    for layer_name, filters in partition.reliable_filters.items():
        node = by_name.get(layer_name)
        if node is None:
            raise ValidationError(
                f"reliability annotation references unknown layer "
                f"{layer_name!r}"
            )
        if node.op != "conv2d":
            raise ValidationError(
                f"reliable layer {layer_name!r} is {node.op}, "
                "only conv2d filters can be dependable"
            )
        out_channels = node.attrs["out_channels"]
        bad = [f for f in filters if not 0 <= f < out_channels]
        if bad:
            raise ValidationError(
                f"layer {layer_name!r}: filter indices {bad} outside "
                f"[0, {out_channels})"
            )

    final_shape = shapes[-1]
    if len(final_shape) != 1:
        raise ValidationError(
            f"graph must end in a class vector, ends in {final_shape}"
        )
    if not 0 <= config.safety_class < final_shape[0]:
        raise ValidationError(
            f"safety class {config.safety_class} outside the "
            f"{final_shape[0]}-class head"
        )
