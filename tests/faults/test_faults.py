"""Bit flips, fault models, injectors."""

from __future__ import annotations

import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.bitflip import (
    bit_range_bounds,
    flip_bit32,
    flip_bit32_array,
    flip_bit64,
    random_bitflip,
    word32_array,
)
from repro.faults.injector import (
    FaultyExecutionUnit,
    corrupt_tensor,
    flip_weight_bits,
)
from repro.faults.models import (
    SCALAR_FIRES_MAX,
    IntermittentFault,
    PermanentFault,
    TransientFault,
)
from repro.nn import Conv2D
from repro.reliable.vectorized import is_deterministic
from tests.support.oracles import transient_apply_array_reference


def _float64(word: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", word))[0]


#: Float64 carriers of float32 signalling-NaN words (mantissa bit 22
#: clear), as :func:`flip_bit32` returns them: words 0x7FA00000 and
#: 0xFF800001.
SNAN_CARRIERS = [_float64(0x7FF4000000000000), _float64(0xFFF0000020000000)]
#: A float64 NaN whose payload lies wholly below bit 29, so it has no
#: float32 counterpart.
LOW_PAYLOAD_NAN = _float64(0x7FF0000000000001)


class TestBitflip:
    def test_sign_bit(self):
        assert flip_bit32(1.0, 31) == -1.0
        assert flip_bit64(2.5, 63) == -2.5

    def test_flip_changes_value(self):
        for bit in (0, 10, 23, 30):
            assert flip_bit32(1.5, bit) != 1.5

    def test_double_flip_is_identity(self):
        value = 3.14159
        for bit in (0, 5, 22, 27, 31):
            assert flip_bit32(flip_bit32(value, bit), bit) == np.float32(
                value
            )

    def test_bounds(self):
        with pytest.raises(ValueError):
            flip_bit32(1.0, 32)
        with pytest.raises(ValueError):
            flip_bit64(1.0, 64)

    @pytest.mark.parametrize("bit", [np.int64(0), np.uint8(0)])
    def test_numpy_integer_bit(self, bit):
        """A NumPy integer bit gives the words a Python int does, also
        into a negative NaN word."""
        for value in (-np.inf, 1.5):
            assert struct.pack("<d", flip_bit32(value, bit)) == struct.pack(
                "<d", flip_bit32(value, int(bit))
            )

    def test_random_flip_respects_bit_range(self, rng):
        # Exponent-only flips of 1.0 never just tweak the mantissa.
        for _ in range(50):
            flipped = random_bitflip(1.0, rng, bit_range=(23, 31))
            assert flipped != 1.0
            # Mantissa of 1.0 is zero; exponent flip keeps it zero, so
            # result is a power of two (or subnormal edge).
            mantissa = np.float32(flipped).view(np.uint32) & 0x7FFFFF
            assert mantissa == 0

    def test_random_flip_validation(self, rng):
        with pytest.raises(ValueError):
            random_bitflip(1.0, rng, width=16)
        with pytest.raises(ValueError):
            random_bitflip(1.0, rng, bit_range=(8, 40))

    def test_bit_range_bounds(self):
        assert bit_range_bounds(None) == (0, 32)
        assert bit_range_bounds(None, width=64) == (0, 64)
        assert bit_range_bounds((23, 31)) == (23, 31)
        assert bit_range_bounds((31, 32)) == (31, 32)
        assert bit_range_bounds((32, 40), width=64) == (32, 40)


#: Ranges outside ``0 <= low < high <= 32``: too wide, empty, negative
#: and reversed.
BAD_BIT_RANGES = [(0, 40), (5, 5), (-1, 8), (30, 20)]


class TestBitRangeValidatedUpFront:
    """A bad ``bit_range`` fails where it is given, whatever the
    stream would have drawn."""

    @pytest.mark.parametrize("bit_range", BAD_BIT_RANGES)
    def test_bounds_reject(self, bit_range):
        with pytest.raises(ValueError, match="bit_range"):
            bit_range_bounds(bit_range)

    @pytest.mark.parametrize("bit_range", BAD_BIT_RANGES)
    def test_random_bitflip_rejects(self, rng, bit_range):
        with pytest.raises(ValueError, match="bit_range"):
            random_bitflip(1.0, rng, bit_range=bit_range)

    @pytest.mark.parametrize("bit_range", BAD_BIT_RANGES)
    def test_transient_rejects_at_construction(self, rng, bit_range):
        with pytest.raises(ValueError, match="bit_range"):
            TransientFault(0.0, rng, bit_range=bit_range)

    @pytest.mark.parametrize("bit_range", BAD_BIT_RANGES)
    @pytest.mark.parametrize("seed", range(4))
    def test_corrupt_tensor_rejects_on_every_seed(self, bit_range, seed):
        with pytest.raises(ValueError, match="bit_range"):
            corrupt_tensor(
                np.ones(8, dtype=np.float32), 3,
                np.random.default_rng(seed), bit_range=bit_range,
            )


@given(st.floats(-1e30, 1e30, allow_nan=False), st.integers(0, 31))
@settings(max_examples=100, deadline=None)
# Exponent flip whose intermediate word is a *signalling* NaN: the
# float64 round trip used to quiet it (set mantissa bit 22), so the
# second flip restored a different word.
@example(value=7.922816723663084e+28, bit=28)
def test_flip32_involution_property(value, bit):
    once = flip_bit32(value, bit)
    twice = flip_bit32(once, bit)
    assert twice == float(np.float32(value))


class TestTransient:
    def test_zero_probability_never_fires(self, rng):
        fault = TransientFault(0.0, rng)
        assert all(not fault.fires() for _ in range(100))

    def test_one_probability_always_fires(self, rng):
        fault = TransientFault(1.0, rng)
        assert all(fault.fires() for _ in range(100))

    def test_rate_approximates_probability(self):
        fault = TransientFault(0.3, np.random.default_rng(0))
        hits = sum(fault.fires() for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    def test_apply_counts_activations(self, rng):
        fault = TransientFault(1.0, rng)
        fault.apply(1.0)
        fault.apply(2.0)
        assert fault.activations == 2

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            TransientFault(1.5)

    @pytest.mark.parametrize("probability", [0.0, 1e-3, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("draws_per_op", [1, 2, 3])
    def test_quiet_ops_matches_scalar_fires(self, probability, draws_per_op):
        """``quiet_ops`` counts the ops before the first one holding a
        firing draw and leaves the stream at that op's first draw --
        where n scalar ``fires()`` calls per op would have left it."""
        for seed in range(20):
            fault = TransientFault(probability, np.random.default_rng(seed))
            scalar = TransientFault(
                probability, np.random.default_rng(seed)
            )
            n_ops = 40
            quiet = fault.quiet_ops(n_ops, draws_per_op)
            expected = 0
            while expected < n_ops:
                state = scalar.rng.bit_generator.state
                if any([scalar.fires() for _ in range(draws_per_op)]):
                    scalar.rng.bit_generator.state = state
                    break
                expected += 1
            assert quiet == expected
            assert fault.rng.bit_generator.state == (
                scalar.rng.bit_generator.state
            )
            assert fault.activations == 0

    def test_quiet_ops_of_nothing(self, rng):
        fault = TransientFault(1.0, rng)
        state = rng.bit_generator.state
        assert fault.quiet_ops(0, 2) == 0
        assert rng.bit_generator.state == state


class TestIntermittent:
    def test_burst_structure(self):
        fault = IntermittentFault(
            burst_start=0.05, burst_end=0.3,
            rng=np.random.default_rng(3),
        )
        fires = [fault.fires() for _ in range(2000)]
        # Bursty: consecutive-fire pairs must far exceed the
        # independent-fault expectation for the same rate.
        rate = sum(fires) / len(fires)
        pairs = sum(
            1 for a, b in zip(fires, fires[1:]) if a and b
        )
        expected_pairs_independent = rate * rate * len(fires)
        assert pairs > 2 * expected_pairs_independent

    def test_validation(self):
        with pytest.raises(ValueError):
            IntermittentFault(burst_start=2.0, burst_end=0.5)


class TestPermanent:
    def test_always_fires_same_corruption(self, rng):
        fault = PermanentFault(bit=28, rng=rng)
        a = fault.apply(7.0)
        b = fault.apply(7.0)
        assert a == b != 7.0

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            PermanentFault(bit=33)


class TestFaultyUnit:
    def test_targets_multiply_only(self, rng):
        unit = FaultyExecutionUnit(
            PermanentFault(bit=30, rng=rng), targets="multiply"
        )
        assert unit.multiply(2.0, 3.0) != 6.0
        assert unit.add(2.0, 3.0) == 5.0

    def test_targets_add_only(self, rng):
        unit = FaultyExecutionUnit(
            PermanentFault(bit=30, rng=rng), targets="add"
        )
        assert unit.multiply(2.0, 3.0) == 6.0
        assert unit.add(2.0, 3.0) != 5.0

    def test_invalid_target(self, rng):
        with pytest.raises(ValueError):
            FaultyExecutionUnit(TransientFault(0.1, rng), targets="sub")


class TestTensorCorruption:
    def test_corrupt_returns_copy_and_flips(self, rng):
        tensor = np.ones((4, 4), dtype=np.float32)
        corrupted, flips = corrupt_tensor(tensor, 3, rng)
        assert len(flips) == 3
        assert (tensor == 1.0).all()          # original untouched
        assert (corrupted != 1.0).sum() >= 1  # flips may collide

    def test_flip_positions_reported(self, rng):
        tensor = np.zeros((2, 3), dtype=np.float32)
        corrupted, flips = corrupt_tensor(tensor, 1, rng)
        (position, bit) = flips[0]
        assert corrupted[position] != 0.0 or bit < 23  # 0.0 mantissa flips stay tiny but nonzero
        assert 0 <= bit < 32

    def test_zero_flips(self, rng):
        tensor = np.ones(5, dtype=np.float32)
        corrupted, flips = corrupt_tensor(tensor, 0, rng)
        np.testing.assert_array_equal(corrupted, tensor)
        assert flips == []

    def test_weight_injection_in_place(self, rng):
        conv = Conv2D(1, 2, 3, rng=rng)
        before = conv.weight.value.copy()
        flips = flip_weight_bits(conv, 4, rng)
        assert len(flips) == 4
        assert not np.array_equal(conv.weight.value, before)

    def test_negative_flips_rejected(self, rng):
        with pytest.raises(ValueError):
            corrupt_tensor(np.ones(3, dtype=np.float32), -1, rng)

    @pytest.mark.parametrize(
        ("value", "bit", "word"),
        [(np.inf, 0, 0x7F800001), (1.25, 30, 0x7FA00000)],
    )
    def test_flip_to_signalling_nan_stores_one_bit(self, value, bit, word):
        """The stored word differs from the original in the reported
        bit alone, also where it is a signalling NaN that a store
        through a float carrier would quiet."""
        tensor = np.full(3, value, dtype=np.float32)
        corrupted, flips = corrupt_tensor(
            tensor, 1, np.random.default_rng(0), bit_range=(bit, bit + 1)
        )
        [(position, flipped)] = flips
        assert flipped == bit
        assert corrupted.view(np.uint32)[position] == word

    def test_flip_positions_are_plain_ints(self, rng):
        _, flips = corrupt_tensor(
            np.zeros((2, 3, 4), dtype=np.float32), 5, rng
        )
        for position, bit in flips:
            assert all(type(i) is int for i in (*position, bit))
        json.dumps(flips)


class TestArrayBitflip:
    """Array flip primitives must match the scalar ones bit for bit."""

    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True),
            min_size=1, max_size=16,
        ),
        st.integers(0, 31),
    )
    @settings(max_examples=50, deadline=None)
    # Rounds to the nearest float32.
    @example(values=[0.1], bit=0)
    # Rounds down to FLT_MAX; overflows to inf.
    @example(values=[3.4028235677973366e38, 3.5e38, -3.5e38], bit=3)
    @example(values=[1e-46], bit=22)
    @example(values=[LOW_PAYLOAD_NAN], bit=22)
    @example(values=SNAN_CARRIERS, bit=0)
    @example(values=SNAN_CARRIERS, bit=22)
    def test_matches_scalar_flip(self, values, bit):
        array = flip_bit32_array(np.array(values, dtype=np.float64), bit)
        scalar = [flip_bit32(v, bit) for v in values]
        assert array.tobytes() == np.array(scalar, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("value", [3.5e38, -3.5e38, 1e300])
    def test_out_of_range_flips_are_silent(self, value):
        """A value beyond float32 range stores as the signed infinity
        without an overflow warning, in both forms."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bit in range(32):
                scalar = flip_bit32(value, bit)
                array = flip_bit32_array(np.array([value]), bit)
                assert array.tobytes() == np.array([scalar]).tobytes()

    def test_per_element_bits(self):
        from repro.faults.bitflip import flip_bit32_array

        out = flip_bit32_array(
            np.array([1.0, 1.0], dtype=np.float64), np.array([31, 30])
        )
        assert out[0] == flip_bit32(1.0, 31)
        assert out[1] == flip_bit32(1.0, 30)

    def test_involution_through_snan_words(self):
        from repro.faults.bitflip import flip_bit32_array

        values = np.array([np.inf, 1.5, np.nan], dtype=np.float64)
        twice = flip_bit32_array(flip_bit32_array(values, 22), 22)
        expected = values.astype(np.float32).astype(np.float64)
        assert twice.tobytes() == expected.tobytes()

    def test_bit_out_of_range(self):
        from repro.faults.bitflip import flip_bit32_array

        with pytest.raises(ValueError):
            flip_bit32_array(np.array([1.0]), 32)


class TestArrayFaultApplication:
    def test_permanent_matches_scalar_elementwise(self):
        fault = PermanentFault(bit=30)
        values = np.array([[1.0, -2.5], [0.0, 3e7]], dtype=np.float64)
        out = fault.apply_array(values)
        reference = PermanentFault(bit=30)
        expected = np.array(
            [[reference.apply(float(v)) for v in row] for row in values]
        )
        assert out.tobytes() == expected.tobytes()
        assert fault.activations == values.size
        assert is_deterministic(FaultyExecutionUnit(fault).as_array_unit())

    def test_transient_array_rate_and_accounting(self):
        fault = TransientFault(0.25, np.random.default_rng(0))
        values = np.full(4000, 1.0, dtype=np.float64)
        out = fault.apply_array(values)
        # Every fired element flips exactly one bit of 1.0, which
        # always changes the carried word.
        changed = int((out != values).sum())
        assert changed == fault.activations
        # ~25% of elements hit.
        assert 800 <= fault.activations <= 1200
        assert not is_deterministic(
            FaultyExecutionUnit(fault).as_array_unit()
        )

    def test_transient_zero_probability_is_identity(self):
        fault = TransientFault(0.0, np.random.default_rng(0))
        values = np.linspace(-1, 1, 10)
        out = fault.apply_array(values)
        assert out.tobytes() == values.astype(np.float64).tobytes()
        assert fault.activations == 0

    def test_base_fallback_preserves_sequential_state(self):
        # IntermittentFault has no vectorised override: the default
        # walks elements in C order, preserving the Gilbert chain.
        rng = np.random.default_rng(7)
        fault = IntermittentFault(0.3, 0.4, rng)
        reference = IntermittentFault(0.3, 0.4, np.random.default_rng(7))
        values = np.linspace(1.0, 2.0, 32)
        out = fault.apply_array(values)
        expected = np.array([reference.apply(float(v)) for v in values])
        assert out.tobytes() == expected.tobytes()


class TestTransientApplyArrayReference:
    """``TransientFault.apply_array`` takes the gaps of few expected
    fires one at a time and of many through one cumulative sum, and
    flips few fired elements one at a time and many through one array
    call.  Every way it must give the words, activations, carried gap
    and reserve, and generator state of the element-by-element
    reference."""

    SPECIALS = [
        0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 1e-46,
        3.4028235677973366e38, 3.5e38, -3.5e38, LOW_PAYLOAD_NAN,
        *SNAN_CARRIERS,
    ]

    @classmethod
    def _inputs(cls, rng):
        """The campaign geometry, a non-contiguous view of it, and
        sizes that put all-fired calls on each side of
        :data:`SCALAR_FIRES_MAX`."""
        base = rng.standard_normal((1, 2, 21, 21)) * 10.0 ** rng.integers(
            -45, 45, (1, 2, 21, 21)
        )
        flat = base.reshape(-1)
        flat[rng.choice(flat.size, len(cls.SPECIALS), replace=False)] = (
            cls.SPECIALS
        )
        view = base[:, ::-1, 1::2, ::3]
        assert not view.flags.c_contiguous
        return [
            base, view,
            flat[:SCALAR_FIRES_MAX], flat[-SCALAR_FIRES_MAX - 1:],
        ]

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.MT19937, np.random.Philox,
         np.random.SFC64],
    )
    @pytest.mark.parametrize("probability", [0.0, 1e-3, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("bit_range", [None, (31, 32), (23, 31)])
    def test_matches_element_by_element_reference(
        self, bit_generator, probability, bit_range
    ):
        fired_counts = set()
        for seed in range(2):
            fault = TransientFault(
                probability, np.random.Generator(bit_generator(seed)),
                bit_range=bit_range,
            )
            reference = TransientFault(
                probability, np.random.Generator(bit_generator(seed)),
                bit_range=bit_range,
            )
            for values in self._inputs(np.random.default_rng(seed)):
                for _ in range(2):
                    before = fault.activations
                    out = fault.apply_array(values)
                    expected = transient_apply_array_reference(
                        reference, values
                    )
                    assert out.shape == expected.shape
                    assert out.tobytes() == expected.tobytes()
                    assert type(fault.activations) is int
                    assert fault.activations == reference.activations
                    assert fault.array_gap == reference.array_gap
                    assert fault.gap_reserve.tobytes() == (
                        reference.gap_reserve.tobytes()
                    )
                    assert repr(fault.rng.bit_generator.state) == repr(
                        reference.rng.bit_generator.state
                    )
                    fired_counts.add(fault.activations - before)
        if probability == 1.0:
            assert {SCALAR_FIRES_MAX, SCALAR_FIRES_MAX + 1} <= fired_counts


class TestTransientGapDistribution:
    """Gap sampling is the per-element Bernoulli(p) SEU process.  On the
    campaign geometry, with fixed seeds: fires per call follow
    Binomial(n, p) in mean and variance, fired positions are uniform,
    the fire counts of consecutive calls are uncorrelated (the carried
    gap biases nothing, so redundant passes stay independent), bits
    are uniform over ``bit_range``, and ``activations`` counts the
    flips made.  Each statistic must lie within four standard errors
    of its expectation."""

    @staticmethod
    def _within(statistic, expected, standard_error):
        assert abs(statistic - expected) < 4 * standard_error, (
            statistic, expected, standard_error,
        )

    @pytest.mark.parametrize(
        "probability, calls, bit_range",
        [(1e-4, 100_000, None), (1e-3, 20_000, (23, 31)),
         (0.05, 2_000, (0, 23))],
    )
    def test_fires_are_independent_bernoulli_trials(
        self, probability, calls, bit_range
    ):
        fault = TransientFault(
            probability, np.random.default_rng(2026), bit_range=bit_range
        )
        # Any one-bit flip changes the word of 1.0, and none makes a NaN.
        values = np.ones((1, 2, 21, 21))
        one = word32_array(values.reshape(-1))
        n = values.size
        counts = np.zeros(calls)
        per_position = np.zeros(n)
        per_bit = np.zeros(32)
        for call in range(calls):
            out = fault.apply_array(values)
            if out is values:
                continue
            flipped = word32_array(out.reshape(-1)) ^ one
            hit = np.flatnonzero(flipped)
            assert not np.any(flipped[hit] & (flipped[hit] - 1))
            counts[call] = hit.size
            per_position[hit] += 1
            per_bit += np.bincount(
                np.log2(flipped[hit]).astype(np.int64), minlength=32
            )
        fires = int(counts.sum())
        assert fault.activations == fires

        q = 1.0 - probability
        mean, variance = n * probability, n * probability * q
        self._within(counts.mean(), mean, np.sqrt(variance / calls))
        fourth = variance * (1 + 3 * (n - 2) * probability * q)
        self._within(
            counts.var(ddof=1), variance,
            np.sqrt((fourth - variance**2) / calls),
        )
        lag_one = np.corrcoef(counts[:-1], counts[1:])[0, 1]
        self._within(lag_one, 0.0, 1 / np.sqrt(calls))

        expected = fires / n
        chi_square = ((per_position - expected) ** 2 / expected).sum()
        self._within(chi_square, n - 1, np.sqrt(2 * (n - 1)))

        low, high = bit_range_bounds(bit_range)
        assert per_bit[:low].sum() == per_bit[high:].sum() == 0
        in_range = per_bit[low:high]
        expected = fires / in_range.size
        chi_square = ((in_range - expected) ** 2 / expected).sum()
        self._within(
            chi_square, in_range.size - 1, np.sqrt(2 * (in_range.size - 1))
        )


class TestArrayFaultyUnit:
    def test_faulty_unit_exposes_array_form(self):
        unit = FaultyExecutionUnit(PermanentFault(bit=5))
        array_unit = unit.as_array_unit()
        assert array_unit is not None
        assert is_deterministic(array_unit)

    def test_targets_respected(self):
        unit = FaultyExecutionUnit(
            PermanentFault(bit=31), targets="multiply"
        ).as_array_unit()
        a = np.array([2.0]); b = np.array([3.0])
        assert unit.multiply(a, b)[0] == -6.0   # corrupted
        assert unit.add(a, b)[0] == 5.0          # untouched

    def test_transient_array_unit_not_deterministic(self):
        unit = FaultyExecutionUnit(
            TransientFault(0.5, np.random.default_rng(0))
        ).as_array_unit()
        assert not is_deterministic(unit)

    def test_base_without_array_form_gives_none(self):
        from repro.reliable.execution_unit import PerfectExecutionUnit

        class Odd(PerfectExecutionUnit):
            def add(self, a, b):
                return a + b + 1e-9

        unit = FaultyExecutionUnit(PermanentFault(bit=5), Odd())
        assert unit.as_array_unit() is None
