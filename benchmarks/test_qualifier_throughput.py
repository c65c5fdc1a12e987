"""Batched qualifier engine vs the scalar per-image loop.

Acceptance bars for the batched engine at batch 64:

* **>= 5x** over the qualifier as this PR found it -- the per-image
  loop whose MINDIST rebuilt the ``a x a`` symbol table inside a
  Python rotation loop (the cost profile the issue motivated against;
  reconstructed here as :class:`SeedDistanceQualifier`, conservatively,
  on top of today's faster frontend).  Measured speedups are typically
  >= 10x.
* **>= 1.5x** over the *shipped* scalar loop, whose per-image
  ``check`` already has the cached distance tables and the tensorized
  rotation scan.  The scalar loop keeps the reference algorithms
  (tap-by-tap Sobel, BFS labelling, the sequential Moore walk); the
  batched engine computes the same bits with whole-batch array passes
  (Sobel without zero or unit multiplies, one union-find over the
  foreground pixels, a table-driven trace).  The conservative bar keeps
  slow CI machines green; the printed line shows the real ratio (~2.8x
  on a 2-vCPU x86-64 host).
* **Batch of one no slower than scalar.**  A lightly loaded server
  flushes one request at a time, so 64 ``check_batch`` calls of one
  image each must take no longer than 64 scalar ``check`` calls, with
  the same verdicts.

Every run also asserts the batched verdicts are bitwise identical to
the shipped scalar loop's (the parity contract of
``repro.core.qualifier_batch``).
"""

from __future__ import annotations

import math
import struct
import time

import numpy as np
import pytest

from repro.core.qualifier import ShapeQualifier
from repro.data import render_sign
from repro.sax.breakpoints import gaussian_breakpoints
from repro.sax.sax import ALPHABET

BATCH = 64
MIN_SPEEDUP_VS_SEED = 5.0
MIN_SPEEDUP_VS_SCALAR = 1.5


class SeedDistanceQualifier(ShapeQualifier):
    """The qualifier with the seed repository's MINDIST arithmetic.

    Reconstructs the pre-PR distance stage exactly: the symbol table
    rebuilt on *every* ``mindist`` call, word -> index conversion
    inside the rotation loop, one Python iteration per rotation per
    template.  Everything else (frontend, labelling, trace, SAX) is
    today's code, which is *faster* than the seed's -- so timing this
    class under-estimates the true seed cost and the asserted speedup
    is conservative.
    """

    @staticmethod
    def _seed_symbol_distance_table(alphabet_size: int) -> np.ndarray:
        bp = gaussian_breakpoints(alphabet_size)
        table = np.zeros((alphabet_size, alphabet_size), dtype=np.float64)
        for r in range(alphabet_size):
            for c in range(alphabet_size):
                if abs(r - c) > 1:
                    hi, lo = max(r, c), min(r, c)
                    table[r, c] = bp[hi - 1] - bp[lo]
        return table

    def _seed_mindist(self, word_a: str, word_b: str) -> float:
        table = self._seed_symbol_distance_table(
            self.encoder.alphabet_size
        )
        ia = np.array([ALPHABET.index(ch) for ch in word_a])
        ib = np.array([ALPHABET.index(ch) for ch in word_b])
        gaps = table[ia, ib]
        w = len(word_a)
        return math.sqrt(self.n_samples / w) * math.sqrt(
            float((gaps**2).sum())
        )

    def _distance(self, word: str) -> float:
        best = math.inf
        for template in self.templates:
            for rot in range(len(template)):
                rotated = template[rot:] + template[:rot]
                d = self._seed_mindist(word, rotated)
                if d < best:
                    best = d
        return best


@pytest.fixture(scope="module")
def images():
    return np.stack([
        render_sign(i % 8, size=96, rotation=np.deg2rad(4 * i - 30))
        for i in range(BATCH)
    ]).astype(np.float32)


def _timed(fn, repeats: int = 3):
    """Best-of-``repeats`` wall time: one scheduler preemption inside
    a single ~100 ms window must not flip a CI-gating ratio."""
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _assert_same_verdicts(got_verdicts, want_verdicts) -> None:
    """Bitwise verdict parity: flags, distance storage bits, words,
    reliability."""
    assert len(got_verdicts) == len(want_verdicts)
    for got, want in zip(got_verdicts, want_verdicts):
        assert got.matches == want.matches
        assert struct.pack("<d", got.distance) == struct.pack(
            "<d", want.distance
        )
        assert got.word == want.word
        assert got.reliable == want.reliable


def test_batched_qualifier_speedup_and_parity(images):
    batched = ShapeQualifier()
    scalar = ShapeQualifier()
    seed = SeedDistanceQualifier()

    # Warm all paths (template caches, allocators) outside timing.
    batched.check_batch(images[:4])
    scalar.check(images[0])
    seed.check(images[0])

    batch_verdicts, batched_seconds = _timed(
        lambda: batched.check_batch(images)
    )
    scalar_verdicts, scalar_seconds = _timed(
        lambda: [scalar.check(image) for image in images]
    )
    _, seed_seconds = _timed(
        lambda: [seed.check(image) for image in images]
    )

    # Bitwise parity against the shipped scalar loop.
    _assert_same_verdicts(batch_verdicts, scalar_verdicts)

    speedup_vs_scalar = scalar_seconds / batched_seconds
    speedup_vs_seed = seed_seconds / batched_seconds
    print(
        f"\nbatch {BATCH} @ 96px: batched {batched_seconds*1e3:.0f}ms, "
        f"scalar loop {scalar_seconds*1e3:.0f}ms "
        f"({speedup_vs_scalar:.1f}x), seed-MINDIST loop "
        f"{seed_seconds*1e3:.0f}ms ({speedup_vs_seed:.1f}x)"
    )
    assert speedup_vs_seed >= MIN_SPEEDUP_VS_SEED, (
        f"batched engine only {speedup_vs_seed:.1f}x over the seed "
        f"qualifier loop ({seed_seconds:.3f}s vs {batched_seconds:.3f}s)"
    )
    assert speedup_vs_scalar >= MIN_SPEEDUP_VS_SCALAR, (
        f"batched engine only {speedup_vs_scalar:.1f}x over the shipped "
        f"scalar loop ({scalar_seconds:.3f}s vs {batched_seconds:.3f}s)"
    )


def test_batch_of_one_no_slower_than_scalar(images):
    batched = ShapeQualifier()
    scalar = ShapeQualifier()
    batched.check_batch(images[:1])
    scalar.check(images[0])

    single_verdicts, single_seconds = _timed(
        lambda: [batched.check_batch(image[None])[0] for image in images]
    )
    scalar_verdicts, scalar_seconds = _timed(
        lambda: [scalar.check(image) for image in images]
    )

    _assert_same_verdicts(single_verdicts, scalar_verdicts)
    print(
        f"\n{BATCH} x batch 1 @ 96px: batched {single_seconds*1e3:.0f}ms, "
        f"scalar {scalar_seconds*1e3:.0f}ms "
        f"({single_seconds / scalar_seconds:.2f}x)"
    )
    assert single_seconds <= scalar_seconds, (
        f"{BATCH} batch-of-one checks took {single_seconds:.3f}s, more "
        f"than {BATCH} scalar checks ({scalar_seconds:.3f}s)"
    )


def test_seed_reference_still_agrees_on_matches(images):
    """The seed-MINDIST reference must reach the same accept/reject
    decisions (its floats differ at ULP level from the tensorized
    scan only through the frontend change, far inside the calibration
    margin) -- guarding the reference against drifting into a straw
    man."""
    seed = SeedDistanceQualifier(redundant=False)
    current = ShapeQualifier(redundant=False)
    for image in images[:16]:
        assert seed.check(image).matches == current.check(image).matches
