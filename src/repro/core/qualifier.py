"""The shape qualifier: the dependable block of the hybrid CNN.

The qualifier decides, deterministically and explainably, whether an
image (or a reliable feature map) contains the safety-relevant shape
-- for the paper's use-case, the octagon of a "Stop" sign.  Its
pipeline is the paper's Figure 3: edge map -> largest contour ->
centroid-to-edge distance series -> SAX word -> comparison against a
template word via a bounded distance.

The qualifier is itself a *reliable* block.  The scalar
:meth:`ShapeQualifier.check` / :meth:`ShapeQualifier.check_feature_map`
run the pipeline twice inside the checkpoint/rollback machinery of
the convolution arithmetic, and the runs must agree; a subclassed
qualifier or encoder, whose hooks may not repeat themselves, takes
that path.  The batched engine (:mod:`repro.core.qualifier_batch`)
runs the exact stock types once: their stages are pure functions of
the input bits, so a second run would repeat the first word for word.
A surrogate-function bound (ref [26]) holds: the SAX distance is
bounded a priori, so the accept/reject threshold can be fixed during
certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.data.shapes2d import regular_polygon
from repro.reliable.checkpoint import CheckpointedSegment, RollbackPolicy
from repro.reliable.errors import PersistentFailureError
from repro.sax.distance import (
    mindist_profile,
    rotation_index_tensor,
    word_indices,
)
from repro.sax.sax import SaxEncoder
from repro.vision.contours import largest_contour
from repro.vision.edges import edge_map
from repro.vision.morphology import binary_dilate
from repro.vision.series import centroid_distance_series

#: Number of samples in the centroid-distance series (paper Fig. 3
#: uses a comparable resolution; 128 keeps eight octagon corners at
#: 16 samples per corner period).
SERIES_SAMPLES = 128


def _check_image_shape(shape: tuple[int, ...]) -> None:
    """The one image-shape check of :meth:`ShapeQualifier.check` and
    :meth:`ShapeQualifier.check_batch`, run before any stage: an image
    is ``(h, w)`` or ``(c, h, w)`` with no empty axis."""
    if len(shape) not in (2, 3) or 0 in shape:
        raise ValueError(
            "expected an (h, w) or (c, h, w) image with no empty axis, "
            f"got {shape}"
        )


def _polygon_series(sides: int, n_samples: int = SERIES_SAMPLES
                    ) -> np.ndarray:
    """Ideal centroid-distance series of a regular polygon."""
    vertices = regular_polygon((0.0, 0.0), 100.0, sides,
                               rotation=np.pi / sides)
    # Dense polygon boundary: interpolate points along each edge.
    points = []
    per_edge = max(8, (4 * n_samples) // sides)
    for i in range(sides):
        a = vertices[i]
        b = vertices[(i + 1) % sides]
        for t in np.linspace(0.0, 1.0, per_edge, endpoint=False):
            points.append(a + t * (b - a))
    return centroid_distance_series(np.array(points), n_samples=n_samples)


_SIDES = {
    "triangle": 3, "square": 4, "diamond": 4,
    "pentagon": 5, "hexagon": 6, "octagon": 8,
}


def shape_template_word(
    shape: str,
    encoder: SaxEncoder,
    n_samples: int = SERIES_SAMPLES,
) -> str:
    """Canonical SAX word of an ideal shape (phase offset zero).

    Template words are computed from geometry, not training data --
    they are the "well understood data sets" of the dependable path.
    See :func:`shape_template_words` for the phase-robust variant set
    the qualifier actually matches against.
    """
    return shape_template_words(shape, encoder, n_samples)[0]


def shape_template_words(
    shape: str,
    encoder: SaxEncoder,
    n_samples: int = SERIES_SAMPLES,
) -> list[str]:
    """All sub-symbol phase variants of a shape's template word.

    A centroid-distance signature is periodic in the boundary angle;
    PAA segments sample that periodic signal, so the word depends on
    the (arbitrary) phase at which the observed boundary walk starts.
    Whole-symbol phase shifts are handled by rotating words during
    comparison; *sub-symbol* shifts change the word itself.  Encoding
    the ideal series at every sample offset within one PAA segment
    yields the complete set of words an ideal shape can produce, and
    the qualifier accepts the minimum distance over that set.
    """
    if type(encoder) is SaxEncoder:
        # Template words are pure functions of geometry and encoder
        # parameters; memoise them so per-trial qualifier construction
        # (campaigns build a pipeline per trial) stops re-walking the
        # polygon boundary.
        return list(_template_variants(
            shape, encoder.word_length, encoder.alphabet_size,
            encoder.normalize, n_samples,
        ))
    return _compute_template_words(shape, encoder, n_samples)


def _compute_template_words(
    shape: str, encoder: SaxEncoder, n_samples: int
) -> list[str]:
    if shape == "circle":
        return [encoder.encode(np.ones(n_samples))]
    if shape not in _SIDES:
        raise ValueError(f"unknown shape {shape!r}")
    series = _polygon_series(_SIDES[shape], n_samples)
    samples_per_segment = max(1, n_samples // encoder.word_length)
    seen: list[str] = []
    for offset in range(samples_per_segment):
        word = encoder.encode(np.roll(series, offset))
        if word not in seen:
            seen.append(word)
    return seen


@lru_cache(maxsize=None)
def _template_variants(
    shape: str,
    word_length: int,
    alphabet_size: int,
    normalize: bool,
    n_samples: int,
) -> tuple[str, ...]:
    encoder = SaxEncoder(word_length, alphabet_size, normalize)
    return tuple(_compute_template_words(shape, encoder, n_samples))


def octagon_template_word(encoder: SaxEncoder | None = None) -> str:
    """Template word for the stop-sign octagon."""
    encoder = encoder or SaxEncoder(word_length=32, alphabet_size=8)
    return shape_template_word("octagon", encoder)


@dataclass(frozen=True, kw_only=True)
class QualifierVerdict:
    """Outcome of one qualifier evaluation.

    Construction is keyword-only so call sites read as statements of
    intent (``QualifierVerdict(matches=False, reliable=False)``)
    rather than positional puzzles; the defaults describe the null
    verdict "nothing matched, but the dependable path itself worked".
    :meth:`unavailable` names the one other state that call sites
    build by hand.

    Attributes
    ----------
    matches:
        True when the observed shape matches the template within the
        threshold.
    distance:
        Rotation-minimised MINDIST between observed and template
        words (the bounded surrogate output).
    word:
        The observed SAX word, kept for explainability ("fully
        explainable, for instance during a safety certification
        process").
    reliable:
        False when the dependable path detected an execution fault
        it could not repair (the scalar path's redundant executions
        kept disagreeing, or the reliable arithmetic feeding the
        qualifier aborted); the verdict must be treated as
        unavailable.
    """

    matches: bool = False
    distance: float = float("inf")
    word: str = ""
    reliable: bool = True

    def __bool__(self) -> bool:
        return self.matches and self.reliable

    @classmethod
    def unavailable(cls) -> QualifierVerdict:
        """The dependable path itself failed: no verdict is available.

        The hybrid must treat the safety class as unconfirmed (see
        :class:`repro.core.hybrid.Decision.QUALIFIER_UNAVAILABLE`).
        """
        return cls(matches=False, distance=float("inf"), word="",
                   reliable=False)


class ShapeQualifier:
    """Deterministic, reliably-executed shape confirmation.

    Parameters
    ----------
    shape:
        Target shape name (default ``"octagon"`` for "Stop").
    word_length, alphabet_size:
        SAX parameters; defaults (32, 8) put four PAA segments on each
        octagon corner period, which keeps the scallop amplitude
        visible at every sampling phase (two segments per period can
        alias the signature flat).
    threshold:
        Accept when the rotation-minimised MINDIST is at or below
        this.  The default separates octagons from circles and
        triangles with margin on the synthetic data (see the
        calibration test in ``tests/core/test_qualifier.py``).
    redundant:
        Execute the scalar :meth:`check` / :meth:`check_feature_map`
        pipeline twice and require agreement (default True; set False
        only to time one scalar evaluation).  The batched engine
        evaluates each image once whatever this says: it runs only
        when a second run provably repeats the first.
    edge_threshold:
        Optional fixed edge-map threshold forwarded to
        :func:`repro.vision.edges.edge_map`.

    :meth:`check` and :meth:`check_feature_map` are the scalar
    pipeline: the paper-faithful reference, and the per-image loop of
    the batched forms for a subclass.  :meth:`check_batch` and
    :meth:`check_feature_map_batch` -- the path both hybrids infer
    through -- run the vectorized engine of
    :mod:`repro.core.qualifier_batch` exactly when its verdicts are
    provably bitwise identical to the scalar calls
    (:func:`~repro.core.qualifier_batch.batched_is_exact`), and the
    per-image loop otherwise.  There is no knob: the exactness check
    is the whole policy.
    """

    def __init__(
        self,
        shape: str = "octagon",
        word_length: int = 32,
        alphabet_size: int = 8,
        threshold: float = 3.0,
        redundant: bool = True,
        edge_threshold: float | None = None,
        n_samples: int = SERIES_SAMPLES,
    ) -> None:
        if not (math.isfinite(threshold) and threshold >= 0):
            raise ValueError("threshold must be finite and non-negative")
        if edge_threshold is not None and not math.isfinite(edge_threshold):
            raise ValueError("edge_threshold must be finite or None")
        self.shape = shape
        self.encoder = SaxEncoder(word_length, alphabet_size)
        self.threshold = threshold
        self.redundant = redundant
        self.edge_threshold = edge_threshold
        self.n_samples = n_samples
        self.templates = shape_template_words(
            shape, self.encoder, n_samples
        )
        # (templates, rotations, w) index tensor: every cyclic
        # rotation of every template variant, precomputed so distance
        # evaluation -- scalar or batched -- is one table lookup and
        # one contiguous reduction instead of a Python rotation loop.
        self._template_rotations = np.stack([
            rotation_index_tensor(word, self.encoder.alphabet_size)
            for word in self.templates
        ])

    # -- pipeline stages -------------------------------------------------
    def signature(self, image: np.ndarray) -> np.ndarray:
        """Centroid-distance series of the dominant shape in ``image``."""
        mask = edge_map(image, threshold=self.edge_threshold)
        contour = largest_contour(mask)
        return centroid_distance_series(contour, n_samples=self.n_samples)

    def word(self, image: np.ndarray) -> str:
        """Observed SAX word for ``image``."""
        return self.encoder.encode(self.signature(image))

    def _evaluate_once(self, image: np.ndarray) -> tuple[bool, float, str]:
        try:
            word = self.word(image)
        except ValueError:
            # No contour found: definitively not the shape.
            return False, float("inf"), ""
        distance = self._distance(word)
        return distance <= self.threshold, distance, word

    def _distance(self, word: str) -> float:
        """Min rotation-invariant MINDIST over all template variants.

        One pass over the precomputed rotation tensor; bitwise equal
        to the historical per-template/per-rotation loop (each
        candidate's squared-gap sum reduces the same contiguous ``w``
        gaps, and the minimum of identical floats is order-free).
        """
        symbols = word_indices(word, self.encoder.alphabet_size)
        profile = mindist_profile(
            symbols, self._template_rotations,
            self.encoder.alphabet_size, self.n_samples,
        )
        return float(profile.min())

    def _distance_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Batched :meth:`_distance` over ``(k, w)`` observed symbol
        rows; returns the ``(k,)`` minimised distances."""
        profile = mindist_profile(
            symbols[:, None, None, :], self._template_rotations[None],
            self.encoder.alphabet_size, self.n_samples,
        )
        return profile.min(axis=(1, 2))

    def _run_scalar(self, evaluate, name: str) -> QualifierVerdict:
        """One scalar verdict from ``evaluate``, redundantly when
        configured.

        With ``redundant=True`` ``evaluate`` runs twice inside a
        :class:`CheckpointedSegment`; disagreement rolls back once,
        and persistent disagreement (the segment's
        :class:`~repro.reliable.errors.PersistentFailureError`) yields
        the *unavailable* verdict rather than an exception -- the
        hybrid must keep operating and treat the safety class as
        unconfirmed.  Any other exception is a software error, not a
        detected execution fault, and propagates.
        """
        if self.redundant:
            segment = CheckpointedSegment(
                evaluate, lambda result: result == evaluate(),
                RollbackPolicy(max_rollbacks=1),
                name=f"{name}[{self.shape}]",
            )
            try:
                result = segment.run()
            except PersistentFailureError:
                return QualifierVerdict.unavailable()
        else:
            result = evaluate()
        matches, distance, word = result
        return QualifierVerdict(matches=matches, distance=distance,
                                word=word)

    # -- public API ---------------------------------------------------------
    def check(self, image: np.ndarray) -> QualifierVerdict:
        """Evaluate the qualifier on one ``(h, w)`` or ``(c, h, w)``
        image, redundantly when configured (see :meth:`_run_scalar`)."""
        _check_image_shape(np.shape(image))
        return self._run_scalar(
            lambda: self._evaluate_once(image), "qualifier"
        )

    def check_feature_map(self, feature_map: np.ndarray) -> QualifierVerdict:
        """Qualifier over already-computed (reliable) edge responses.

        Used by the integrated hybrid (Figure 2): the bifurcated DCNN
        output is already an edge response, so the pipeline starts at
        thresholding rather than recomputing gradients.

        ``feature_map`` is either one ``(h, w)`` map (absolute
        response used directly) or a stack ``(2, h, w)`` of
        directional responses -- typically the Sobel-x and Sobel-y
        pinned filters -- combined into a gradient magnitude.  The
        two-map form is strongly preferred: a single directional
        filter response has gaps where the shape outline runs
        parallel to the filter direction.
        """
        feature_map = np.asarray(feature_map, dtype=np.float32)
        if feature_map.ndim == 3:
            if feature_map.shape[0] == 1:
                feature_map = np.abs(feature_map[0])
            elif feature_map.shape[0] == 2:
                feature_map = np.hypot(feature_map[0], feature_map[1])
            else:
                raise ValueError(
                    "expected (h, w), (1, h, w) or (2, h, w), got "
                    f"{feature_map.shape}"
                )
        else:
            feature_map = np.abs(feature_map)
        peak = float(feature_map.max())
        if peak <= 0.0:
            return QualifierVerdict()
        # Dilation reconnects ridge fragments that strided sampling
        # split; without it the largest component can be a tiny arc.
        mask = binary_dilate(feature_map >= 0.5 * peak)

        def evaluate() -> tuple[bool, float, str]:
            try:
                contour = largest_contour(mask)
                series = centroid_distance_series(
                    contour, n_samples=self.n_samples
                )
                word = self.encoder.encode(series)
            except ValueError:
                return False, float("inf"), ""
            distance = self._distance(word)
            return distance <= self.threshold, distance, word

        return self._run_scalar(evaluate, "qualifier-fm")

    # -- batched API ------------------------------------------------------
    def check_batch(self, images: np.ndarray) -> list[QualifierVerdict]:
        """Evaluate the qualifier over a stack of images.

        ``images`` is ``(n, c, h, w)`` or ``(n, h, w)`` -- axis 0 is
        always the batch.  Returns one :class:`QualifierVerdict` per
        image, equal to ``[self.check(img) for img in images]``:
        bitwise so through the batched engine (see
        :mod:`repro.core.qualifier_batch` for the contract), trivially
        so through the per-image loop a subclass takes.  A stack
        :meth:`check` would refuse image by image raises the same
        ``ValueError`` before any stage runs.
        """
        images = np.asarray(images, dtype=np.float32)
        _check_image_shape(images.shape[1:])
        if len(images) == 0:
            return []
        from repro.core import qualifier_batch

        if qualifier_batch.batched_is_exact(self):
            return qualifier_batch.batched_check(self, images)
        return [self.check(image) for image in images]

    def check_feature_map_batch(
        self, feature_maps: np.ndarray
    ) -> list[QualifierVerdict]:
        """Batched :meth:`check_feature_map` over stacked reliable
        feature maps (``(n, h, w)``, ``(n, 1, h, w)`` or
        ``(n, 2, h, w)``), with the same per-image equality guarantee
        as :meth:`check_batch`."""
        feature_maps = np.asarray(feature_maps, dtype=np.float32)
        if feature_maps.ndim not in (3, 4):
            raise ValueError(
                "expected (n, h, w), (n, 1, h, w) or (n, 2, h, w), got "
                f"{feature_maps.shape}"
            )
        if len(feature_maps) == 0:
            return []
        from repro.core import qualifier_batch

        if qualifier_batch.batched_is_exact(self):
            return qualifier_batch.batched_check_feature_map(
                self, feature_maps
            )
        return [self.check_feature_map(fm) for fm in feature_maps]
