"""Derivative kernels and 2-D correlation.

The paper replaces learnt AlexNet filters with a "Sobel-x, Sobel-y,
Sobel-x" stack across the three input channels (Section III.B);
:func:`sobel_filter_stack` builds exactly that object at any kernel
size by embedding the 3x3 Sobel operator centred in a zero kernel, so
it can stand in for an 11x11x3 AlexNet filter.
"""

from __future__ import annotations

import numpy as np

SOBEL_X = np.array(
    [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]], dtype=np.float32
)
SOBEL_Y = SOBEL_X.T.copy()


def scharr_kernels() -> tuple[np.ndarray, np.ndarray]:
    """Scharr x/y kernels (rotation-optimised Sobel alternative)."""
    gx = np.array(
        [[-3.0, 0.0, 3.0], [-10.0, 0.0, 10.0], [-3.0, 0.0, 3.0]],
        dtype=np.float32,
    )
    return gx, gx.T.copy()


def prewitt_kernels() -> tuple[np.ndarray, np.ndarray]:
    """Prewitt x/y kernels."""
    gx = np.array(
        [[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]],
        dtype=np.float32,
    )
    return gx, gx.T.copy()


def embed_kernel(kernel: np.ndarray, size: int) -> np.ndarray:
    """Centre a small kernel inside a ``size x size`` zero kernel."""
    kernel = np.asarray(kernel, dtype=np.float32)
    kh, kw = kernel.shape
    if kh > size or kw > size:
        raise ValueError(f"kernel {kernel.shape} larger than target {size}")
    out = np.zeros((size, size), dtype=np.float32)
    top = (size - kh) // 2
    left = (size - kw) // 2
    out[top : top + kh, left : left + kw] = kernel
    return out


def sobel_filter_stack(size: int = 3, in_channels: int = 3) -> np.ndarray:
    """The paper's Sobel replacement filter ``(in_channels, size, size)``.

    Channels alternate Sobel-x, Sobel-y, Sobel-x, ... matching the
    paper's "Sobel-x, Sobel-y, Sobel-x" description for RGB input.
    """
    if in_channels < 1:
        raise ValueError("in_channels must be >= 1")
    sx = embed_kernel(SOBEL_X, size)
    sy = embed_kernel(SOBEL_Y, size)
    planes = [sx if c % 2 == 0 else sy for c in range(in_channels)]
    return np.stack(planes, axis=0)


def sobel_axis_stack(
    axis: str, size: int = 3, in_channels: int = 3
) -> np.ndarray:
    """A single-direction Sobel filter ``(in_channels, size, size)``.

    All channels carry the same kernel (Sobel-x for ``axis="x"``,
    Sobel-y for ``axis="y"``), so the filter response is the chosen
    directional derivative of the summed channels.  The integrated
    hybrid pins one x and one y filter and reconstructs a gradient
    magnitude in the qualifier -- a single mixed filter (like
    :func:`sobel_filter_stack`) responds directionally and leaves
    gaps in contours parallel to its direction.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    kernel = SOBEL_X if axis == "x" else SOBEL_Y
    plane = embed_kernel(kernel, size)
    return np.stack([plane] * in_channels, axis=0)


def _correlate_taps(images: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Tap-sequential 'same' correlation over an ``(n, h, w)`` stack.

    Accumulates ``kernel[u, v] * shifted_image`` in row-major tap
    order through plain float32 ufunc passes.  Every output element's
    float chain is the same fixed multiply/accumulate sequence
    whatever the batch size -- elementwise ufuncs never re-associate a
    reduction the way a BLAS contraction may when its kernel choice
    changes with problem size -- so scalar and batched calls agree
    bitwise by construction (the same property the reliable engine's
    speculative passes rely on).
    """
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    # Replicate-pad so derivative kernels see no artificial step at the
    # image border (zero padding would add a spurious frame of edges).
    padded = np.pad(
        images, ((0, 0), (ph, kh - 1 - ph), (pw, kw - 1 - pw)), mode="edge"
    )
    n, h, w = images.shape
    acc = np.zeros((n, h, w), dtype=np.float32)
    term = np.empty((n, h, w), dtype=np.float32)
    for u in range(kh):
        for v in range(kw):
            np.multiply(
                padded[:, u : u + h, v : v + w], kernel[u, v], out=term
            )
            acc += term
    return acc


def correlate2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """'Same'-size 2-D cross-correlation with replicate padding.

    This is the conv-layer convention (no kernel flip), so results
    match applying the kernel through :class:`repro.nn.layers.Conv2D`.
    """
    image = np.asarray(image, dtype=np.float32)
    kernel = np.asarray(kernel, dtype=np.float32)
    if image.ndim != 2 or kernel.ndim != 2:
        raise ValueError("correlate2d expects 2-D arrays")
    return _correlate_taps(image[None], kernel)[0]


def correlate2d_batch(images: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Batched :func:`correlate2d` over an ``(n, h, w)`` image stack.

    Bitwise identical per image to n scalar calls by construction:
    both run the same tap-sequential accumulation (see
    :func:`_correlate_taps`), padding applied per image.
    """
    images = np.asarray(images, dtype=np.float32)
    kernel = np.asarray(kernel, dtype=np.float32)
    if images.ndim != 3 or kernel.ndim != 2:
        raise ValueError(
            "correlate2d_batch expects (n, h, w) images and a 2-D kernel"
        )
    return _correlate_taps(images, kernel)


def gradient_magnitude(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of a greyscale image."""
    gx = correlate2d(image, SOBEL_X)
    gy = correlate2d(image, SOBEL_Y)
    return np.hypot(gx, gy)


#: ``(row, col, weight)`` of every nonzero tap of Sobel-x and of
#: Sobel-y, in row-major order: the finite-stack schedules of
#: :func:`gradient_magnitude_batch`.  Every weight is +-1 or +-2.
_SOBEL_TAPS = tuple(
    tuple((u, v, int(k)) for (u, v), k in np.ndenumerate(kernel) if k)
    for kernel in (SOBEL_X, SOBEL_Y)
)


def _correlate_unit_taps(
    padded: np.ndarray,
    doubled: np.ndarray,
    taps: tuple[tuple[int, int, int], ...],
) -> np.ndarray:
    """:func:`_correlate_taps` for a finite stack padded by one pixel
    and a schedule from ``_SOBEL_TAPS``.

    The first tap starts the sum as its window or the window's
    negation; each later tap adds or subtracts its window, taken from
    ``padded`` for weight +-1 and from ``doubled = padded + padded``
    for weight +-2.
    """
    _, hp, wp = padded.shape
    h, w = hp - 2, wp - 2
    windows = [
        ((doubled if abs(weight) == 2 else padded)[:, u : u + h, v : v + w],
         weight)
        for u, v, weight in taps
    ]
    (first, weight), *rest = windows
    acc = np.negative(first) if weight < 0 else first.copy()
    for window, weight in rest:
        if weight < 0:
            acc -= window
        else:
            acc += window
    return acc


def gradient_magnitude_batch(images: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitudes of an ``(n, h, w)`` greyscale stack.

    Bitwise identical per image to :func:`gradient_magnitude`.  A stack
    holding any inf or NaN runs the same tap-sequential correlation
    (:func:`correlate2d_batch`).  A finite stack runs each Sobel kernel
    in the same row-major tap order with fewer passes: it skips the
    zero taps, applies a +-1 tap as one add or subtract of the shifted
    window, and a +-2 tap as an add or subtract of ``window + window``
    (taken from one doubled copy of the padded stack).  On finite
    input ``0 * x`` is a signed zero, ``+-1 * x`` is ``+-x`` and
    ``2 * x`` is ``x + x`` bit for bit, overflow included, so each
    derivative response equals the generic one except possibly in the
    sign of a zero -- which ``np.hypot`` discards.  Inf or NaN
    input breaks the first of those (``0 * inf`` is NaN), hence the
    fallback.
    """
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 3:
        raise ValueError(
            f"gradient_magnitude_batch expects (n, h, w) images, "
            f"got {images.shape}"
        )
    if np.isfinite(images).all():
        padded = np.pad(images, ((0, 0), (1, 1), (1, 1)), mode="edge")
        doubled = padded + padded
        gx, gy = (
            _correlate_unit_taps(padded, doubled, taps)
            for taps in _SOBEL_TAPS
        )
    else:
        gx = correlate2d_batch(images, SOBEL_X)
        gy = correlate2d_batch(images, SOBEL_Y)
    return np.hypot(gx, gy)
