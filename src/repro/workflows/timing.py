"""Experiment E1/E6: Table 1 execution times.

The paper measures the reliable convolution algorithm on the first
AlexNet layer (96 feature maps from 96 11x11x3 filters) on a desktop
CPU:

=========================  ==========
Configuration              Time
=========================  ==========
native TensorFlow          0.05 s
Algorithm 3 + Algorithm 1  301.91 s
Algorithm 3 + Algorithm 2  648.87 s
naive SAX (shape)          1.942 s
=========================  ==========

Absolute numbers are platform-bound; the claims that survive
replication are the *ratios*: redundant/plain is ~2.15x (two
multiplies and a comparison replace one multiply), and per-operation
reliable execution in Python is 3-4 orders of magnitude above the
vectorised native path.

By default the workflow measures a scaled layer and reports
per-operation costs alongside an extrapolation to the paper's
geometry; set ``full=True`` (or the ``REPRO_FULL=1`` environment
variable for the bench) to run the paper's exact layer.

This workflow always runs ``engine="scalar"`` -- it exists to
reproduce the paper's per-operation timing.  The production path is
the speculate-then-verify engine (:mod:`repro.reliable.vectorized`),
benchmarked against this one in
``benchmarks/test_reliable_vectorized.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api import QualifierConfig, build_qualifier
from repro.data.signs import render_sign
from repro.nn.layers.conv import Conv2D
from repro.reliable.execution_unit import Float32ExecutionUnit
from repro.reliable.executor import ReliableConv2D
from repro.reliable.operators import PlainOperator, RedundantOperator


#: Multiply-accumulate count of the paper's layer: 96 filters of
#: 11*11*3 over a 55x55 output grid, multiplies + accumulates + bias.
PAPER_LAYER_OPS = 96 * 55 * 55 * (11 * 11 * 3 * 2 + 1)


@dataclass
class Table1Result:
    """Measured Table 1 row set."""

    native_seconds: float
    plain_seconds: float
    redundant_seconds: float
    plain_ops: int
    redundant_ops: int
    layer_description: str
    full_scale: bool

    @property
    def redundant_over_plain(self) -> float:
        """The wall-clock ratio Table 1 implies (648.87/301.91=2.15).

        In this Python implementation per-operation dispatch overhead
        is shared by both configurations, compressing the measured
        ratio below 2; the *unit-execution* ratio (see
        :attr:`unit_execution_ratio`) is exactly 2, which is the
        paper's structural claim ("Algorithm 2 performs two
        multiplications and a comparison").
        """
        return self.redundant_seconds / self.plain_seconds

    @property
    def unit_execution_ratio(self) -> float:
        """Arithmetic-unit executions, redundant / plain (exactly 2)."""
        return (RedundantOperator.executions_per_op
                / PlainOperator.executions_per_op)

    @property
    def plain_over_native(self) -> float:
        return self.plain_seconds / self.native_seconds

    def extrapolated_plain_full(self) -> float:
        """Projected plain-operator seconds for the paper's geometry."""
        if self.full_scale:
            return self.plain_seconds
        return self.plain_seconds * PAPER_LAYER_OPS / self.plain_ops

    def extrapolated_redundant_full(self) -> float:
        if self.full_scale:
            return self.redundant_seconds
        return self.redundant_seconds * PAPER_LAYER_OPS / self.redundant_ops

    def to_text(self) -> str:
        lines = [
            f"layer: {self.layer_description}",
            f"{'native (vectorised)':<28} {self.native_seconds:>10.4f} s",
            f"{'Algorithm 1 (plain)':<28} {self.plain_seconds:>10.2f} s",
            f"{'Algorithm 2 (redundant)':<28} {self.redundant_seconds:>10.2f} s",
            f"{'redundant / plain (time)':<28} "
            f"{self.redundant_over_plain:>10.2f} x   (paper: 2.15x)",
            f"{'redundant / plain (unit ops)':<28} "
            f"{self.unit_execution_ratio:>10.2f} x",
            f"{'plain / native':<28} {self.plain_over_native:>10.0f} x",
        ]
        if not self.full_scale:
            lines.append(
                f"{'extrapolated full plain':<28} "
                f"{self.extrapolated_plain_full():>10.1f} s   (paper: 301.91 s)"
            )
            lines.append(
                f"{'extrapolated full redundant':<28} "
                f"{self.extrapolated_redundant_full():>10.1f} s   (paper: 648.87 s)"
            )
        return "\n".join(lines)


def _first_layer(full: bool, rng: np.random.Generator) -> tuple[Conv2D, int, str]:
    if full:
        layer = Conv2D(3, 96, 11, stride=4, rng=rng, name="conv1")
        return layer, 227, "96 filters 11x11x3, 227x227 input (paper scale)"
    layer = Conv2D(3, 8, 5, stride=2, rng=rng, name="conv1")
    return layer, 32, "8 filters 5x5x3, 32x32 input (scaled)"


def run_table1(full: bool = False, seed: int = 0) -> Table1Result:
    """Measure Table 1 on this machine.

    ``full=True`` runs the paper's exact first-layer geometry; expect
    minutes-to-hours of runtime, exactly as the paper reports.
    """
    rng = np.random.default_rng(seed)
    layer, size, description = _first_layer(full, rng)
    image = render_sign(0, size=size)[None]

    start = time.perf_counter()
    layer.forward(image)
    native_seconds = time.perf_counter() - start

    # Bit-exact float32 arithmetic: the values a hardware comparator
    # would see, and a unit whose cost is visible next to the wrapper.
    # engine="scalar" pins the paper-literal per-operation loop: this
    # workflow *measures* Algorithm 3's per-op dispatch cost, which the
    # default speculate-then-verify engine exists to eliminate.
    unit = Float32ExecutionUnit()
    plain = ReliableConv2D(layer, PlainOperator(unit), engine="scalar")
    start = time.perf_counter()
    _, plain_report = plain.forward(image)
    plain_seconds = time.perf_counter() - start

    redundant = ReliableConv2D(
        layer, RedundantOperator(unit), engine="scalar"
    )
    start = time.perf_counter()
    _, redundant_report = redundant.forward(image)
    redundant_seconds = time.perf_counter() - start

    return Table1Result(
        native_seconds=native_seconds,
        plain_seconds=plain_seconds,
        redundant_seconds=redundant_seconds,
        plain_ops=plain_report.operations,
        redundant_ops=redundant_report.operations,
        layer_description=description,
        full_scale=full,
    )


def time_sax_qualifier(
    image_size: int = 227, repeats: int = 5, seed: int = 0
) -> float:
    """Section IV: "a naive version of the SAX algorithm to determine
    shape completes in 1.942 seconds".

    Returns the mean wall time of one full qualifier evaluation
    (edge map, contour, series, SAX, template comparison) on a
    stop-sign image of the paper's input size.
    """
    del seed  # the qualifier is deterministic
    qualifier = build_qualifier(QualifierConfig(redundant=False))
    image = render_sign(0, size=image_size, rotation=np.deg2rad(5))
    qualifier.check(image)  # warm-up outside timing
    start = time.perf_counter()
    for _ in range(repeats):
        qualifier.check(image)
    return (time.perf_counter() - start) / repeats
