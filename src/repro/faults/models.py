"""Fault models: when faults fire and how they corrupt a value.

Terminology follows the dependability literature the paper cites:

* **transient** -- each operation is independently hit with some
  probability; a re-execution is overwhelmingly likely to succeed,
  which is why rollback works ("the assumption being that such an
  error ... will not be present once the system has re-booted");
* **intermittent** -- errors arrive in bursts (e.g. marginal timing
  under temperature); modelled as a two-state Gilbert process;
* **permanent** -- once manifest, every affected operation is
  corrupted the same way (stuck-at behaviour).  Re-execution on the
  same unit cannot help; the paper notes the platform "becomes
  unusable" under temporal redundancy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.faults.bitflip import (
    bit_range_bounds,
    flip_bit32,
    flip_bit32_array,
    random_bitflip,
)

#: How many gaps :meth:`TransientFault.apply_array` draws at a time, as
#: one ``rng.geometric`` call whose draws later fires take in order.
#: Part of the stream: another size would put the bit draws elsewhere
#: in it, and so change every vectorized transient-fault result.
GAP_RESERVE = 1024

#: How many fires :meth:`TransientFault.apply_array` handles one at a
#: time.  A call whose rest is expected to fire fewer times takes its
#: gaps from the reserve one by one (~0.4 us each) instead of through
#: one cumulative sum over it (~6 us, nearly all fixed); a call that
#: fires at most this many elements flips them through the scalar
#: :func:`flip_bit32` (~0.7 us each) instead of one
#: :func:`flip_bit32_array` call (~34 us, nearly all fixed).  Measured
#: on a (1, 2, 21, 21) result, the gaps cost the same at ~20 expected
#: fires and the flips at ~46 fired elements; 32 lies between.
SCALAR_FIRES_MAX = 32


class FaultModel:
    """Decides whether an operation is corrupted and how.

    Subclasses implement :meth:`fires` (does this execution get hit?)
    and :meth:`corrupt` (what does the hit do to the result?).

    Pass an explicit ``rng`` for reproducibility.  When omitted, each
    model gets a *freshly entropy-seeded* generator: a shared default
    stream (the old ``default_rng(0)``) silently made two
    default-constructed models replay identical fault sequences,
    which corrupts any statistic built from more than one model.
    Campaign code never relies on the default -- the engine derives a
    per-trial generator from the spec seed
    (:mod:`repro.campaigns.seeding`) and
    :meth:`repro.campaigns.FaultSpec.build` rejects ``rng=None``.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        # repro: allow[RNG-SEED] -- deliberate fresh entropy: the PR 2
        # fix replacing the shared default_rng(0) that bit-correlated
        # "independent" fault streams.  Campaign paths always pass an
        # explicit SeedSequence-spawned generator; this default only
        # covers ad-hoc interactive use.
        self.rng = rng if rng is not None else np.random.default_rng()
        self.activations = 0

    def fires(self) -> bool:
        raise NotImplementedError

    def corrupt(self, value: float) -> float:
        raise NotImplementedError

    def apply(self, value: float) -> float:
        """Corrupt ``value`` if the model fires, else pass it through."""
        if self.fires():
            self.activations += 1
            return self.corrupt(value)
        return value

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Array form of :meth:`apply` for the vectorized engine's
        speculative passes.

        The base implementation walks the array in C order calling
        :meth:`apply` per element -- correct for any model (it
        preserves sequential state such as a Gilbert burst), but with
        scalar cost.  Models whose draws are independent per operation
        override this with cheaper sampling of the same process
        (:meth:`TransientFault.apply_array` draws the gaps between
        fires); those overrides consume the random stream in a
        different order than per-op scalar calls would, which is fine
        because array injection is a distinct (equally valid) sampling
        of the same fault process, never a replay of a scalar run.
        """
        values = np.asarray(values, dtype=np.float64)
        flat = values.reshape(-1)
        out = np.array(
            [self.apply(float(v)) for v in flat], dtype=np.float64
        )
        return out.reshape(values.shape)


class TransientFault(FaultModel):
    """Independent per-operation SEU with probability ``probability``.

    Corruption is a uniformly-random single bit flip, optionally
    restricted to a bit range (see
    :func:`repro.faults.bitflip.random_bitflip`).

    :meth:`apply_array` carries two things from call to call:
    ``array_gap``, how many array elements pass quiet before the next
    fire, and ``gap_reserve``, the ``rng.geometric`` draws that later
    fires take.  The gap is None until the first call takes it, so
    building a fault draws nothing, and infinite when ``probability``
    is 0.
    """

    def __init__(
        self,
        probability: float,
        rng: np.random.Generator | None = None,
        bit_range: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(rng)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        bit_range_bounds(bit_range)
        self.probability = probability
        self.bit_range = bit_range
        self.array_gap: int | float | None = (
            None if probability > 0.0 else math.inf
        )
        self.gap_reserve = np.empty(0, dtype=np.int64)

    def fires(self) -> bool:
        return bool(self.rng.random() < self.probability)

    def quiet_ops(self, n_ops: int, draws_per_op: int) -> int:
        """How many of the next ``n_ops`` operations, each drawing
        ``draws_per_op`` :meth:`fires` draws, pass with no draw firing.

        Reads the stream ahead with one ``rng.random(n)`` call, which
        returns the same doubles and leaves the same state as ``n``
        scalar draws.  When every op is quiet the stream stays past
        them all; otherwise it is rewound to the first draw of the
        first op holding a firing draw, so that op can run through
        the real unit and consume its draws exactly as it would have.
        """
        state = self.rng.bit_generator.state
        fired = self.rng.random(n_ops * draws_per_op) < self.probability
        if not fired.any():
            return n_ops
        quiet = int(fired.argmax()) // draws_per_op
        self.rng.bit_generator.state = state
        self.rng.random(quiet * draws_per_op)
        return quiet

    def corrupt(self, value: float) -> float:
        return random_bitflip(
            value, self.rng, width=32, bit_range=self.bit_range
        )

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """The SEU process over array elements, sampled by the gaps
        between fires (see the base-class note on stream order).

        The elements of successive calls, each in C order, form one
        stream of operations.  :attr:`array_gap` elements pass quiet,
        the next one fires, and each fire takes the gap to the one
        after it: the next ``rng.geometric(probability)`` draw of
        :attr:`gap_reserve`, less one.  A fire that finds the reserve
        empty refills it with :data:`GAP_RESERVE` draws; the first
        call takes the first gap.  Geometric gaps have no memory, so
        every element fires independently with ``probability``
        however the calls cut the stream, and redundant passes see
        disjoint, independent trials.  A call the next fire does not
        reach draws nothing and returns ``values`` itself; a call
        with fires draws the fired elements' bits as one
        ``rng.integers`` block in C order and returns a corrupted
        copy.

        Below :data:`SCALAR_FIRES_MAX` expected fires the gaps are
        taken one by one, above it through one cumulative sum; up to
        that many fired elements flip one at a time through
        :func:`flip_bit32`, more through one :func:`flip_bit32_array`
        call.  Either way the draws and words are the same.  Scalar
        :meth:`fires` and :meth:`quiet_ops` keep one draw per
        operation and never touch the gaps.  Gap sampling replaced one
        fire draw per element, so it changed every vectorized
        transient-fault result and fingerprint once.
        """
        values = np.asarray(values, dtype=np.float64)
        if self.array_gap is None:
            self.array_gap = self._take_step() - 1
        n = values.size
        if self.array_gap >= n:
            self.array_gap -= n
            return values
        fired = self._fire_positions(n)
        n_fired = len(fired)
        self.activations += n_fired
        low, high = bit_range_bounds(self.bit_range)
        out = values.copy()
        flat = out.reshape(-1)  # a view: ``copy`` lays ``out`` out in C order
        if n_fired > SCALAR_FIRES_MAX:
            bits = self.rng.integers(low, high, size=n_fired)
            flat[fired] = flip_bit32_array(flat[fired], bits)
            return out
        # A scalar draw is the same stream as a block of one, and costs
        # a third as much: most calls with fires fire once.
        bits = (
            [self.rng.integers(low, high)] if n_fired == 1
            else self.rng.integers(low, high, size=n_fired).tolist()
        )
        for index, bit in zip(fired, bits):
            flat[index] = flip_bit32(flat[index], bit)
        return out

    def _gap_steps(self) -> np.ndarray:
        """:attr:`gap_reserve`, refilled if it is empty."""
        if not self.gap_reserve.size:
            self.gap_reserve = self.rng.geometric(
                self.probability, size=GAP_RESERVE
            )
        return self.gap_reserve

    def _take_step(self) -> int:
        """The next reserve draw: the gap to the next fire, plus one."""
        step = int(self._gap_steps()[0])
        self.gap_reserve = self.gap_reserve[1:]
        return step

    def _fire_positions(self, n: int) -> list[int] | np.ndarray:
        """The C-order positions of the fires among the next ``n``
        array elements, the first at :attr:`array_gap` (below ``n``).
        Each fire takes one step; what is left of the last one, the
        gap that leaves the call, stays in :attr:`array_gap`."""
        position = self.array_gap
        if self.probability * (n - position) < SCALAR_FIRES_MAX:
            fired = []
            while position < n:
                fired.append(position)
                position += self._take_step()
            self.array_gap = position - n
            return fired
        blocks = [np.array([position])]
        while True:
            # The fires that the reserve's steps lead to, in order.
            ends = np.cumsum(self._gap_steps())
            ends += position
            inside = int(np.searchsorted(ends, n))
            if inside < ends.size:
                blocks.append(ends[:inside])
                self.gap_reserve = self.gap_reserve[inside + 1:]
                self.array_gap = int(ends[inside]) - n
                return np.concatenate(blocks)
            blocks.append(ends)
            position = int(ends[-1])
            self.gap_reserve = self.gap_reserve[:0]


class IntermittentFault(FaultModel):
    """Bursty faults: a two-state Gilbert model.

    In the *good* state operations are clean; each operation may move
    to the *bad* state with probability ``burst_start``.  In the bad
    state every operation is corrupted and the state exits with
    probability ``burst_end``.
    """

    def __init__(
        self,
        burst_start: float,
        burst_end: float,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(rng)
        for name, p in (("burst_start", burst_start),
                        ("burst_end", burst_end)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.burst_start = burst_start
        self.burst_end = burst_end
        self.in_burst = False

    def fires(self) -> bool:
        if self.in_burst:
            if self.rng.random() < self.burst_end:
                self.in_burst = False
                return False
            return True
        if self.rng.random() < self.burst_start:
            self.in_burst = True
            return True
        return False

    def corrupt(self, value: float) -> float:
        return random_bitflip(value, self.rng, width=32)


class PermanentFault(FaultModel):
    """Stuck-at fault: always fires, deterministic corruption.

    ``bit`` selects which result bit is stuck; the flip is the same on
    every execution, so redundant re-execution on the same unit agrees
    with itself -- the common-mode blind spot of temporal redundancy
    that only *spatial* (diverse) redundancy can uncover.  Being a
    pure function of the value, it is the one model under which the
    vectorized engine's speculation stays bit-exact
    (:func:`repro.reliable.vectorized.is_deterministic`).
    """

    def __init__(
        self, bit: int = 30, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__(rng)
        if not 0 <= bit < 32:
            raise ValueError("bit must be in [0, 32)")
        self.bit = bit

    def fires(self) -> bool:
        return True

    def corrupt(self, value: float) -> float:
        return flip_bit32(value, self.bit)

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Stuck-at on every element: the same bit flips everywhere,
        exactly as per-op scalar application would corrupt it."""
        values = np.asarray(values, dtype=np.float64)
        self.activations += values.size
        return flip_bit32_array(values, self.bit)
