"""Batched qualifier engine: the dependable path, vectorized.

The scalar :meth:`~repro.core.qualifier.ShapeQualifier.check` is
paper-faithful and paper-slow: per-pixel BFS labelling, a Python
rotation loop in MINDIST, and all of it twice for temporal
redundancy.  This engine keeps the Figure-3 *semantics* -- edge map
-> largest contour -> centroid-distance series -> SAX word -> bounded
template distance -- while moving the arithmetic into whole-batch
array passes that evaluate each of the ``(n, ...)`` images once:
batched grayscale/Sobel/threshold
(:func:`~repro.vision.edges.edge_map_batch`), every image's largest
8-connected component from one union-find over the stack's
foreground pixels
(:func:`~repro.vision.contours.largest_component_batch`), a
table-driven Moore trace of each of those components
(:func:`~repro.vision.contours.trace_boundary_batch`), length-grouped
series extraction
(:func:`~repro.vision.series.centroid_distance_series_batch`), one
SAX encoding of the stacked series matrix, and one fancy-indexed
MINDIST over the precomputed template rotation tensor.

Why one execution suffices
--------------------------
The engine runs only for exact types (:func:`batched_is_exact`), and
then every stage is a pure NumPy function of the input bits: no fault
model or RNG reaches it, and the compute-scope lint rules keep
clocks, the environment and ``id()`` out.  A second execution would
be the same function of the same input, word-identical to the first,
so comparing the two could never disagree -- the argument the
vectorized reliable conv makes for deterministic units
(:func:`repro.reliable.vectorized.is_deterministic`: one speculative
pass stands in for every redundant one).  Redundant execution stays
where a second run can differ: a subclassed qualifier or encoder may
override per-image hooks, so it takes the scalar per-image loop,
whose :class:`~repro.reliable.checkpoint.CheckpointedSegment`
executes twice, rolls back once and degrades to an *unavailable*
verdict on persistent disagreement.

Equivalence contract
--------------------
For an unmodified :class:`~repro.core.qualifier.ShapeQualifier` with a
stock :class:`~repro.sax.sax.SaxEncoder` (the condition
:func:`batched_is_exact` checks before
:meth:`~repro.core.qualifier.ShapeQualifier.check_batch` takes this
engine), every stage is bitwise identical to the scalar pipeline per
image: the batched Sobel runs the scalar correlation's taps in the
same order (on a finite stack without its zero and unit multiplies,
which changes at most the sign of a zero that the magnitude drops),
the union-find's roots are the BFS seeds, so it selects the same
largest component, the Moore trace's ``(neighbour code, backtrack)``
table holds the scalar walk's scan decision for every neighbourhood,
series extraction groups boundaries by length so every row reduction
walks the scalar summation tree, and the batched SAX/MINDIST forms
reduce the same contiguous rows (see
``tests/core/test_qualifier_batch.py`` and the randomized differential
harness in ``tests/support/fuzz.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.qualifier import QualifierVerdict, ShapeQualifier
from repro.sax.sax import SaxEncoder, symbols_to_words
from repro.vision.contours import (
    largest_component_batch,
    trace_boundary_batch,
)
from repro.vision.edges import edge_map_batch
from repro.vision.morphology import binary_dilate_batch
from repro.vision.series import centroid_distance_series_batch

#: The "definitively not the shape" outcome of one evaluation: no
#: contour (or a degenerate one), exactly what the scalar path returns
#: when the Figure-3 pipeline finds nothing traceable.
_MISS = (False, float("inf"), "")


def batched_is_exact(qualifier: ShapeQualifier) -> bool:
    """Whether the batched engine is provably bit-identical to n
    scalar ``check()`` calls for this qualifier.

    Exact types only, like the vectorized reliable-conv engine's
    operator check: a subclass may override ``signature``/``word``/
    ``_distance`` (or the encoder's ``symbols``) in ways the batched
    pipeline would silently bypass.
    """
    return (
        type(qualifier) is ShapeQualifier
        and type(qualifier.encoder) is SaxEncoder
    )


def _verdict(result: tuple[bool, float, str]) -> QualifierVerdict:
    matches, distance, word = result
    return QualifierVerdict(matches=matches, distance=distance, word=word)


def _qualify_masks(
    qualifier: ShapeQualifier, masks: np.ndarray
) -> list[tuple[bool, float, str]]:
    """One batched evaluation of edge masks to verdict tuples.

    Mirrors the scalar ``_evaluate_once`` stage for stage: the largest
    component of each mask is Moore-traced, degenerate masks (no
    foreground, or a boundary of fewer than 3 points -- the cases the
    scalar path converts from ``ValueError``) yield the miss tuple,
    and the surviving series are SAX-encoded and template-matched as
    one matrix.
    """
    n = len(masks)
    results: list[tuple[bool, float, str] | None] = [None] * n
    components, found = largest_component_batch(masks)
    boundaries = trace_boundary_batch(components)
    contours: list[np.ndarray] = []
    owners: list[int] = []
    for i in range(n):
        points = boundaries[i]
        if points is None or len(points) < 3:
            # No foreground, or a degenerate boundary -- the cases the
            # scalar path converts from ``ValueError``.
            results[i] = _MISS
            continue
        contours.append(points)
        owners.append(i)
    if owners:
        series_rows = centroid_distance_series_batch(
            contours, n_samples=qualifier.n_samples
        )
        symbols = qualifier.encoder.symbols_batch(series_rows)
        words = symbols_to_words(symbols)
        distances = qualifier._distance_symbols(symbols)
        for row, i in enumerate(owners):
            distance = float(distances[row])
            results[i] = (
                distance <= qualifier.threshold, distance, words[row]
            )
    return results  # type: ignore[return-value]


def batched_check(
    qualifier: ShapeQualifier, images: np.ndarray
) -> list[QualifierVerdict]:
    """Batched form of :meth:`ShapeQualifier.check` over ``(n, ...)``
    images; see the module docstring for the scheme and the
    equivalence contract."""
    images = np.asarray(images, dtype=np.float32)
    masks = edge_map_batch(images, threshold=qualifier.edge_threshold)
    return [_verdict(t) for t in _qualify_masks(qualifier, masks)]


def batched_check_feature_map(
    qualifier: ShapeQualifier, feature_maps: np.ndarray
) -> list[QualifierVerdict]:
    """Batched form of :meth:`ShapeQualifier.check_feature_map`.

    ``feature_maps`` is ``(n, h, w)``, ``(n, 1, h, w)`` or
    ``(n, 2, h, w)`` -- the batched twins of the scalar layouts.  The
    magnitude/threshold/dilation frontend is the scalar path's, and
    the contour-to-distance stage is :func:`_qualify_masks`, shared
    with :func:`batched_check`.
    """
    feature_maps = np.asarray(feature_maps, dtype=np.float32)
    if feature_maps.ndim == 4:
        if feature_maps.shape[1] == 1:
            magnitude = np.abs(feature_maps[:, 0])
        elif feature_maps.shape[1] == 2:
            magnitude = np.hypot(feature_maps[:, 0], feature_maps[:, 1])
        else:
            raise ValueError(
                "expected (n, h, w), (n, 1, h, w) or (n, 2, h, w), got "
                f"{feature_maps.shape}"
            )
    elif feature_maps.ndim == 3:
        magnitude = np.abs(feature_maps)
    else:
        raise ValueError(
            "expected (n, h, w), (n, 1, h, w) or (n, 2, h, w), got "
            f"{feature_maps.shape}"
        )
    peaks = magnitude.max(axis=(1, 2)).astype(np.float64)
    dead = peaks <= 0.0
    masks = binary_dilate_batch(
        magnitude >= (0.5 * peaks)[:, None, None]
    )
    # A non-positive peak short-circuits scalar evaluation entirely
    # (null verdict before any contour work); blank its mask so the
    # shared qualification pass skips it the same way.
    masks[dead] = False
    verdicts = [_verdict(t) for t in _qualify_masks(qualifier, masks)]
    for i in np.nonzero(dead)[0]:
        verdicts[i] = QualifierVerdict()
    return verdicts
