"""Hybrid-CNN interchange format (the paper's proposed future work).

Section V.B: "we believe that focus should be placed on researching
extensions to the ONNX standard to facilitate the platform-agnostic
description of hybrid-CNNs."  This package implements that extension
in miniature: a JSON graph format that describes

* the network topology (an ONNX-like op list with attributes), and
* the **reliability annotation** -- the integrated hybrid's
  :class:`~repro.api.config.PipelineConfig`, stored as is: which
  filters of which layers are dependable, the redundancy scheme, the
  bifurcation point, the qualifier configuration and the safety
  class.

A hybrid graph is exported from a model and its config, validated
structurally, saved/loaded as JSON (+ ``.npz`` weights), and rebuilt
through :func:`repro.api.build_pipeline` on the other side -- the
"platform-agnostic description" round trip, lossless for the config
and bitwise for the results.
"""

from repro.hybridir.schema import SCHEMA_VERSION, HybridGraph, LayerNode
from repro.hybridir.export import export_hybrid, save_hybrid
from repro.hybridir.build import build_hybrid, build_model, load_hybrid
from repro.hybridir.validate import ValidationError, validate_graph

__all__ = [
    "SCHEMA_VERSION",
    "LayerNode",
    "HybridGraph",
    "export_hybrid",
    "save_hybrid",
    "build_model",
    "build_hybrid",
    "load_hybrid",
    "validate_graph",
    "ValidationError",
]
