"""Graph schema: ONNX-like nodes plus the hybrid's wiring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api.config import PipelineConfig

#: Bumped whenever the stored config changes shape, so a file of
#: another version is refused by name (3: the partition lost its
#: ``engine`` field; 4: the qualifier lost its ``redundant`` field).
SCHEMA_VERSION = 4

#: Supported ops and the attributes each carries.
OP_ATTRS: dict[str, tuple[str, ...]] = {
    "conv2d": ("in_channels", "out_channels", "kernel_size", "stride",
               "padding"),
    "dense": ("in_features", "out_features"),
    "relu": (),
    "softmax": (),
    "maxpool2d": ("pool_size", "stride"),
    "flatten": (),
    "lrn": ("size", "k", "alpha", "beta"),
    "dropout": ("rate",),
}


@dataclass
class LayerNode:
    """One topology node: an op, its name, and its attributes."""

    op: str
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op, "name": self.name, "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LayerNode":
        return cls(
            op=data["op"], name=data["name"],
            attrs=dict(data.get("attrs", {})),
        )


@dataclass
class HybridGraph:
    """A complete hybrid-CNN description.

    ``reliability`` is the hybrid extension: the integrated
    :class:`~repro.api.config.PipelineConfig` -- which filters of
    which layer execute dependably and under which redundancy, the
    bifurcation point, the qualifier and the safety class.  That is
    the information an ONNX extension would need to carry for a
    downstream FPGA/accelerator toolchain to reproduce the paper's
    architecture; everything else in the graph is standard topology.
    """

    name: str
    input_shape: tuple[int, int, int]
    layers: list[LayerNode]
    reliability: PipelineConfig
    weights_file: str | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "input_shape": list(self.input_shape),
            "layers": [layer.to_dict() for layer in self.layers],
            "reliability": self.reliability.to_dict(),
            "weights_file": self.weights_file,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HybridGraph":
        version = data.get("schema_version", 0)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema version {version} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        return cls(
            name=data["name"],
            input_shape=tuple(data["input_shape"]),
            layers=[LayerNode.from_dict(d) for d in data["layers"]],
            reliability=PipelineConfig.from_dict(data["reliability"]),
            weights_file=data.get("weights_file"),
            schema_version=version,
        )

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]
