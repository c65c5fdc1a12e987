"""Randomized differential parity: reliable conv engines and ECC.

Two references, fuzzed through :mod:`tests.support.fuzz`:

* ``ReliableConv2D(engine="vectorized")`` vs the scalar Algorithm 3
  loop -- outputs and execution reports bitwise/field equal across
  random layer geometry (padding up to 2), operators, units (binary64,
  binary32, stuck-at faults), zero weights, signed-zero and
  non-finite inputs, filter subsets and batch sizes;
* :func:`repro.reliable.ecc.decode_words` (whole-array mask
  classification) vs an independent per-word Python decode of the same
  SEC-DED layout, across random data and injected 0/1/2-bit upsets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import FaultyExecutionUnit
from repro.faults.models import PermanentFault
from repro.nn.layers.conv import Conv2D
from repro.reliable import ecc
from repro.reliable.execution_unit import (
    Float32ExecutionUnit,
    PerfectExecutionUnit,
)
from repro.reliable.executor import ReliableConv2D
from repro.reliable.operators import make_operator
from tests.support.fuzz import (
    assert_arrays_bitwise_equal,
    assert_reports_equal,
    differential_cases,
    random_codewords,
)

# ---------------------------------------------------------------------------
# Reliable convolution: scalar vs vectorized
# ---------------------------------------------------------------------------


#: Special input words sprinkled over the fuzzed batches.  The NaN is
#: the x86 default NaN (sign set), the word ``inf * 0`` and
#: ``inf - inf`` produce, so every NaN the arithmetic meets carries
#: one word.  When two *different* NaN words meet in one operation,
#: IEEE 754 leaves unspecified which propagates, and NumPy's scalar
#: and array loops choose differently -- a divergence of NaN payloads
#: between the engines, not of the reliable pass.
SIGNED_ZEROS = np.array([0.0, -0.0], dtype=np.float32)
NON_FINITE = np.array([np.inf, -np.inf, -np.nan], dtype=np.float32)

#: Scalar units the conv fuzz draws from, each with the special words
#: it may meet: fault-free binary64 and binary32 arithmetic take
#: signed zeros and non-finite values; stuck-at faults (exponent,
#: sign, low mantissa) take signed zeros only, because flipping a bit
#: of a NaN yields a second NaN word (see above).
UNITS = (
    (PerfectExecutionUnit, np.concatenate([SIGNED_ZEROS, NON_FINITE])),
    (Float32ExecutionUnit, np.concatenate([SIGNED_ZEROS, NON_FINITE])),
    (lambda: FaultyExecutionUnit(PermanentFault(bit=30)), SIGNED_ZEROS),
    (lambda: FaultyExecutionUnit(PermanentFault(bit=31)), SIGNED_ZEROS),
    (
        lambda: FaultyExecutionUnit(
            PermanentFault(bit=2), Float32ExecutionUnit()
        ),
        SIGNED_ZEROS,
    ),
)


@pytest.mark.parametrize("rng", differential_cases(16, root_seed=90210))
def test_vectorized_conv_matches_scalar(rng):
    in_channels = int(rng.integers(1, 4))
    out_channels = int(rng.integers(1, 5))
    kernel = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.choice([0, 1, 2]))
    size = int(rng.integers(kernel + padding, 13))
    layer = Conv2D(
        in_channels,
        out_channels,
        kernel,
        stride=stride,
        padding=padding,
        rng=rng,
        name="fuzz-conv",
    )
    if rng.random() < 0.5:
        # Zero weights: whole filters and scattered taps, so products
        # and accumulations meet +0.0/-0.0 and inf * 0 = NaN.
        weight = layer.weight.value
        weight[rng.random(weight.shape) < 0.3] = 0.0
        if rng.random() < 0.5:
            weight[int(rng.integers(out_channels))] = 0.0
    unit_index = int(rng.integers(len(UNITS)))
    make_unit, special_values = UNITS[unit_index]
    operator = str(rng.choice(["plain", "dmr", "tmr"]))
    n = int(rng.integers(1, 3))
    x = rng.normal(0.0, 1.0, size=(n, in_channels, size, size)).astype(
        np.float32
    )
    if rng.random() < 0.5:
        special = rng.random(x.shape) < 0.1
        x[special] = rng.choice(special_values, size=int(special.sum()))
    if rng.random() < 0.5:
        filters = None
    else:
        count = int(rng.integers(1, out_channels + 1))
        filters = sorted(
            int(f)
            for f in rng.choice(out_channels, size=count, replace=False)
        )
    scalar = ReliableConv2D(
        layer, make_operator(operator, make_unit()),
        engine="scalar",
    )
    vectorized = ReliableConv2D(
        layer, make_operator(operator, make_unit()),
        engine="vectorized",
    )
    # inf - inf and inf * 0 are expected here; the scalar binary32
    # unit would warn on them.
    with np.errstate(invalid="ignore", over="ignore"):
        out_s, rep_s = scalar.forward(x, filters=filters)
        out_v, rep_v = vectorized.forward(x, filters=filters)
    context = (
        f"{operator} unit{unit_index} {in_channels}->{out_channels} "
        f"k{kernel} s{stride} p{padding} n{n} filters={filters}"
    )
    assert_arrays_bitwise_equal(out_v, out_s, context)
    assert_reports_equal(rep_v, rep_s, context)


# ---------------------------------------------------------------------------
# ECC: whole-array decode vs per-word loop reference
# ---------------------------------------------------------------------------


def _reference_decode(code: np.ndarray):
    """Per-word Python decode of the extended Hamming(39,32) layout --
    written independently from the module's documented bit layout, so
    it can disagree with a vectorization bug in ``decode_words``."""
    corrected_words = []
    corrected = 0
    uncorrectable_indices = []
    for index, word in enumerate(int(w) for w in code.reshape(-1)):
        syndrome = 0
        for bit, mask in enumerate(int(m) for m in ecc._COVER_MASKS):
            if bin(word & mask).count("1") % 2:
                syndrome |= 1 << bit
        odd = bin(word & int(ecc._ALL_MASK)).count("1") % 2 == 1
        if odd:
            if syndrome < ecc._N_POSITIONS:
                word ^= 1 << syndrome
                corrected += 1
            else:
                uncorrectable_indices.append(index)
        elif syndrome != 0:
            uncorrectable_indices.append(index)
        data = 0
        for bit, pos in enumerate(ecc._DATA_POSITIONS):
            data |= ((word >> pos) & 1) << bit
        corrected_words.append(data)
    data_array = np.array(corrected_words, dtype=np.uint64).astype(
        np.uint32
    ).reshape(code.shape)
    return data_array, corrected, uncorrectable_indices


@pytest.mark.parametrize("rng", differential_cases(6, root_seed=424242))
def test_decode_words_matches_loop_reference(rng):
    data, code = random_codewords(rng)
    got_data, got_report = ecc.decode_words(code.copy())
    want_data, want_corrected, want_uncorrectable = _reference_decode(
        code
    )
    assert_arrays_bitwise_equal(got_data, want_data, "decoded data")
    assert got_report.corrected == want_corrected
    assert got_report.uncorrectable == len(want_uncorrectable)
    assert got_report.uncorrectable_indices == want_uncorrectable
    # Words never touched by injection must round-trip to their data.
    clean = np.setdiff1d(
        np.arange(len(data)),
        np.array(want_uncorrectable, dtype=np.int64),
    )
    np.testing.assert_array_equal(got_data[clean], data[clean])
