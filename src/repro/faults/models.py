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

import numpy as np

from repro.faults.bitflip import (
    bit_range_bounds,
    flip_bit32,
    flip_bit32_array,
    random_bitflip,
)

#: Up to this many fired elements, :meth:`TransientFault.apply_array`
#: flips them one at a time through the scalar :func:`flip_bit32`
#: (~1 us each); above it, one :func:`flip_bit32_array` call (~40 us,
#: nearly all fixed) costs less.  Measured on a (1, 2, 21, 21) result,
#: the two cost the same at ~40-48 fired elements.
SCALAR_FLIP_MAX = 32


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
        override this with genuinely vectorised sampling; those
        overrides consume the random stream in a different order than
        per-op scalar calls would, which is fine because array
        injection is a distinct (equally valid) sampling of the same
        fault process, never a replay of a scalar run.
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
        """One independent fire draw per element, one bit draw per
        fired element -- the vectorised sampling of the same SEU
        process (see the base-class note on stream order).

        Fired elements take their bits in C order.  Up to
        :data:`SCALAR_FLIP_MAX` of them are flipped by index through
        the scalar :func:`flip_bit32`, which at the rates campaigns
        use (about one fired element per call) costs a fraction of
        the array flip's fixed overhead; more take one
        :func:`flip_bit32_array` call.  Both give the same words.
        """
        values = np.asarray(values, dtype=np.float64)
        fired = self.rng.random(values.shape) < self.probability
        n_fired = int(np.count_nonzero(fired))
        if n_fired == 0:
            return values
        self.activations += n_fired
        low, high = bit_range_bounds(self.bit_range)
        bits = self.rng.integers(low, high, size=n_fired)
        out = values.copy()
        if n_fired > SCALAR_FLIP_MAX:
            out[fired] = flip_bit32_array(values[fired], bits)
            return out
        flat = out.reshape(-1)  # a view: ``copy`` lays ``out`` out in C order
        for index, bit in zip(np.flatnonzero(fired).tolist(), bits.tolist()):
            flat[index] = flip_bit32(flat[index], bit)
        return out


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
