"""Seeded benchmark inputs: frame corpora and request schedules.

Everything here is a pure function of the workload seed.  Frames are
traffic-sign scenes with a seeded class, rotation, scale (0.6-0.9),
centre jitter and sensor noise (sigma 0.02); plain ``render_sign``
calls collide bitwise, so noise is what makes every frame distinct, and
:func:`render_corpus` refuses a corpus that is not.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

N_CLASSES = 8
NOISE_SIGMA = 0.02
#: Centre jitter, as a fraction of the frame size.
JITTER = 0.04


@dataclass(frozen=True)
class Corpus:
    """Distinct frames, optionally paired with a larger qualifier view
    of the same scene (same class, pose and relative jitter)."""

    frames: np.ndarray
    views: np.ndarray | None
    digest: str


def _render(rng, cls, size, rotation, scale, jitter) -> np.ndarray:
    from repro.data import render_sign

    image = render_sign(
        cls, size=size, rotation=rotation, scale=scale,
        center_jitter=(jitter[0] * size, jitter[1] * size),
    )
    image += rng.normal(0.0, NOISE_SIGMA, image.shape).astype(np.float32)
    return np.clip(image, 0.0, 1.0, out=image)


def render_corpus(
    rng: np.random.Generator, n: int, size: int, view_size: int | None
) -> Corpus:
    frames = np.empty((n, 3, size, size), dtype=np.float32)
    views = (
        None if view_size is None
        else np.empty((n, 3, view_size, view_size), dtype=np.float32)
    )
    for i, cls in enumerate(rng.integers(N_CLASSES, size=n).tolist()):
        rotation = float(rng.uniform(-0.35, 0.35))
        scale = float(rng.uniform(0.6, 0.9))
        jitter = rng.uniform(-JITTER, JITTER, size=2)
        frames[i] = _render(rng, cls, size, rotation, scale, jitter)
        if views is not None:
            views[i] = _render(rng, cls, view_size, rotation, scale, jitter)
    frame_digests = {hashlib.sha256(f.tobytes()).digest() for f in frames}
    if len(frame_digests) != n:
        raise RuntimeError(
            f"corpus has {n - len(frame_digests)} bitwise-duplicate frames"
        )
    digest = hashlib.sha256(frames.tobytes())
    if views is not None:
        digest.update(views.tobytes())
    return Corpus(frames, views, digest.hexdigest())


def cyclic_schedule(
    rng: np.random.Generator, n_frames: int, length: int
) -> np.ndarray:
    """Camera traffic: back-to-back seeded permutations of the corpus,
    so every frame recurs once per cycle."""
    cycles = -(-length // n_frames)
    order = np.concatenate(
        [rng.permutation(n_frames) for _ in range(cycles)]
    )
    return order[:length].astype(np.int64)


def zipf_schedule(
    rng: np.random.Generator, n_frames: int, length: int, s: float
) -> np.ndarray:
    """Zipf(s) traffic over a seeded rank -> frame assignment."""
    ranks = np.arange(1, n_frames + 1, dtype=np.float64)
    weights = ranks ** -s
    by_rank = rng.permutation(n_frames)
    drawn = rng.choice(n_frames, size=length, p=weights / weights.sum())
    return by_rank[drawn].astype(np.int64)


def schedule_digest(schedule: np.ndarray) -> str:
    return hashlib.sha256(schedule.astype("<i8").tobytes()).hexdigest()


def lru_hit_rate(keys, capacity: int, measured_from: int) -> float:
    """Hit rate an LRU store of ``capacity`` entries would give the key
    sequence, counting only lookups at or after ``measured_from``
    (earlier ones warm the store)."""
    store: OrderedDict = OrderedDict()
    hits = lookups = 0
    for position, key in enumerate(keys):
        hit = key in store
        if hit:
            store.move_to_end(key)
        else:
            store[key] = None
            if len(store) > capacity:
                store.popitem(last=False)
        if position >= measured_from:
            lookups += 1
            hits += hit
    return hits / lookups if lookups else 0.0
