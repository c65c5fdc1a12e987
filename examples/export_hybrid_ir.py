#!/usr/bin/env python
"""Platform-agnostic hybrid-CNN description (paper future work).

Exports a configured hybrid CNN -- topology + its PipelineConfig as
the reliability annotation -- to the JSON interchange format
(validated on export), saves graph + weights, reloads it into a
running hybrid and shows the rebuilt system makes the same dependable
decision.

Run:  python examples/export_hybrid_ir.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.api import PipelineConfig
from repro.core import HybridPartition
from repro.data import render_sign
from repro.hybridir import export_hybrid, load_hybrid, save_hybrid
from repro.models import alexnet_scaled
from repro.vision.filters import sobel_axis_stack


def main() -> None:
    model = alexnet_scaled(n_classes=8, input_size=128)
    conv1 = model.layer("conv1")
    conv1.set_filter(0, sobel_axis_stack("x", conv1.kernel_size, 3))
    conv1.set_filter(1, sobel_axis_stack("y", conv1.kernel_size, 3))
    config = PipelineConfig(
        architecture="integrated",
        safety_class=0,
        partition=HybridPartition(),  # the paper's conv1 Sobel pair, DMR
    )

    graph = export_hybrid(
        model, config, input_shape=(3, 128, 128), name="stopnet-hybrid"
    )
    print("exported and validated hybrid graph "
          f"({len(graph.layers)} nodes, schema v{graph.schema_version})")
    print("\nreliability annotation (the ONNX-extension payload):")
    print(json.dumps(graph.reliability.to_dict(), indent=2))

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "stopnet"
        save_hybrid(graph, model, base)
        json_size = (base.with_suffix(".json")).stat().st_size
        npz_size = (base.with_suffix(".npz")).stat().st_size
        print(f"\nsaved: stopnet.json ({json_size} B) + "
              f"stopnet.npz ({npz_size // 1024} KiB weights)")

        hybrid = load_hybrid(base)
        print("reloaded into a running IntegratedHybridCNN")
        image = render_sign(0, size=128, rotation=np.deg2rad(5))
        result = hybrid.infer(image)
        print(f"rebuilt hybrid on a stop sign: "
              f"decision={result.decision.value}, "
              f"qualifier distance={result.verdict.distance:.2f}")


if __name__ == "__main__":
    main()
