"""Connected components and Moore-neighbourhood boundary tracing.

Pure-Python/NumPy implementations, deliberately simple and auditable:
the contour trace is part of the paper's *dependable* path, where an
explainable algorithm beats a fast opaque one.

Two labelling implementations coexist, with identical outputs:

* :func:`label_components` -- the per-pixel BFS, paper-faithful and
  trivially auditable; the scalar qualifier path keeps it.
* :func:`label_components_batch` / :func:`largest_component_batch`
  (and :func:`label_components_array` for one mask) -- one union-find
  over the list of foreground pixels of a whole ``(n, h, w)`` stack.
  A background row below and a background column to the right of
  every image make the four forward neighbours (E, SW, S, SE) fixed
  flat-index offsets that cannot wrap across a row or an image; an
  int32 node map links each foreground pixel to those of its forward
  neighbours that are foreground; pointer doubling and hooking of the
  larger root onto the smaller converge every root to its component's
  first row-major pixel, which is exactly the pixel a BFS seeds the
  component from.  Numbering components by ascending root therefore
  reproduces the BFS numbering, and the largest component is the
  root with the most pixels, ties going to the smallest root -- the
  lowest BFS label.  Work and memory follow the foreground count, not
  ``n * h * w``.

Two Moore traces coexist, with identical outputs:

* :func:`trace_boundary` -- the eight-probe walk, and the reference:
  each step probes the neighbourhood clockwise from just past the
  backtrack.  The scalar qualifier path keeps it.
* :func:`trace_boundary_batch` -- the same walk for every mask of a
  stack, one table lookup per step: each foreground pixel gets an
  8-bit code of its foreground neighbours (eight gathers over the
  foreground list), and ``_WALK`` maps ``(code, backtrack)`` to the
  scalar scan's ``(direction, new backtrack)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# Moore neighbourhood in clockwise order starting from "west".
_MOORE = [
    (0, -1), (-1, -1), (-1, 0), (-1, 1),
    (0, 1), (1, 1), (1, 0), (1, -1),
]


def _rebase_table() -> list[list[int | None]]:
    """``_REBASE[prev][d]``: the offset ``_MOORE[prev] - _MOORE[d]``
    expressed as a Moore direction index (None where the two
    neighbours are not themselves adjacent; the trace only ever asks
    for consecutive scan positions, which always are)."""
    table: list[list[int | None]] = []
    for prev in _MOORE:
        row: list[int | None] = []
        for d in _MOORE:
            offset = (prev[0] - d[0], prev[1] - d[1])
            row.append(_MOORE.index(offset) if offset in _MOORE else None)
        table.append(row)
    return table


_REBASE = _rebase_table()


def _walk_table() -> list[tuple[int, int] | None]:
    """``_WALK[code * 8 + back]``: the scalar walk's step from a pixel
    with foreground neighbours ``code`` (bit ``d`` for ``_MOORE[d]``)
    and backtrack ``back``, as ``(direction, new backtrack)``; None
    for an isolated pixel."""
    table: list[tuple[int, int] | None] = []
    for code in range(256):
        for back in range(8):
            move = None
            for step in range(1, 9):
                d = (back + step) % 8
                if code >> d & 1:
                    move = (d, _REBASE[(back + step - 1) % 8][d])
                    break
            table.append(move)
    return table


_WALK = _walk_table()


@dataclass
class Contour:
    """A traced shape boundary.

    Attributes
    ----------
    points:
        ``(n, 2)`` integer array of (row, col) boundary pixels in
        traversal order (closed: the walk returns to the start).
    area:
        Pixel count of the connected component the contour bounds.
    """

    points: np.ndarray
    area: int

    def __len__(self) -> int:
        return len(self.points)

    def centroid(self) -> tuple[float, float]:
        """Mean (row, col) of the boundary points."""
        rows, cols = self.points[:, 0], self.points[:, 1]
        return float(rows.mean()), float(cols.mean())


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labelling via BFS.

    Returns ``(labels, count)`` where ``labels`` is 0 for background
    and 1..count for components.
    """
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=np.int32)
    h, w = mask.shape
    current = 0
    for seed_r, seed_c in zip(*np.nonzero(mask)):
        if labels[seed_r, seed_c]:
            continue
        current += 1
        queue = deque([(int(seed_r), int(seed_c))])
        labels[seed_r, seed_c] = current
        while queue:
            r, c = queue.popleft()
            for dr, dc in _MOORE:
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w:
                    if mask[nr, nc] and not labels[nr, nc]:
                        labels[nr, nc] = current
                        queue.append((nr, nc))
    return labels, current


def _component_roots(
    masks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union-find over the foreground pixels of an ``(n, h, w)`` stack.

    Returns ``(pixels, image, roots)``: the flat indices of the
    foreground pixels in the stack framed by one background row below
    and one background column to the right of every image (shape
    ``(n, h + 1, w + 1)``), ascending; the image each pixel belongs to;
    and the node number of each pixel's component root.  Node ``k`` is
    ``pixels[k]``, so node order is row-major order within each image
    and images follow each other.

    In the framed stack the four forward neighbours E, SW, S and SE of
    any foreground pixel are the flat offsets ``1``, ``w``, ``w + 1``
    and ``w + 2``: a step that would leave a row or an image lands in
    the frame, which is background, so no link can wrap.  An int32 node
    map turns each linked neighbour into its node number.  Components
    then resolve by alternating pointer doubling (full path
    compression) with hooking every still-split link's larger root onto
    the smaller, so each root converges to its component's minimum node
    -- the component's first row-major pixel, where a BFS would have
    seeded it.
    """
    n, h, w = masks.shape
    fw = w + 1
    framed = np.zeros((n, h + 1, fw), dtype=bool)
    framed[:, :h, :w] = masks
    cells = framed.ravel()
    pixels = np.flatnonzero(cells)
    total = len(pixels)
    node_of = np.empty(cells.size, dtype=np.int32)
    node_of[pixels] = np.arange(total, dtype=np.int32)
    heads: list[np.ndarray] = []
    tails: list[np.ndarray] = []
    for offset in (1, fw - 1, fw, fw + 1):  # E, SW, S, SE
        neighbours = pixels + offset
        linked = cells[neighbours]
        heads.append(np.flatnonzero(linked).astype(np.int32))
        tails.append(node_of[neighbours[linked]])
    edge_a = np.concatenate(heads)
    edge_b = np.concatenate(tails)
    parent = np.arange(total, dtype=np.int32)
    while True:
        # Full path compression by pointer doubling.
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        root_a = parent[edge_a]
        root_b = parent[edge_b]
        lo = np.minimum(root_a, root_b)
        hi = np.maximum(root_a, root_b)
        live = lo != hi
        if not live.any():
            break
        # Hook every still-split link's larger root onto the smaller;
        # minimum.at resolves duplicate targets deterministically.
        np.minimum.at(parent, hi[live], lo[live])
    return pixels, pixels // ((h + 1) * fw), parent


def _unframe(
    values: np.ndarray, pixels: np.ndarray, shape: tuple[int, int, int]
) -> np.ndarray:
    """Scatter per-pixel ``values`` into an ``(n, h, w)`` array (zero
    elsewhere), undoing :func:`_component_roots`' framing."""
    n, h, w = shape
    framed = np.zeros(n * (h + 1) * (w + 1), dtype=values.dtype)
    framed[pixels] = values
    return np.ascontiguousarray(framed.reshape(n, h + 1, w + 1)[:, :h, :w])


def label_components_batch(
    masks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Array-parallel 8-connected labelling of an ``(n, h, w)`` stack.

    Returns ``(labels, counts)``: per-image label maps (0 background,
    1..counts[i] components) and the per-image component counts.  Each
    image's labelling is identical to :func:`label_components` on that
    image: its components are numbered in ascending root order, and a
    root is the component's first row-major pixel, the BFS seed.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3:
        raise ValueError(f"expected (n, h, w) masks, got {masks.shape}")
    pixels, image, roots = _component_roots(masks)
    root_nodes = np.flatnonzero(roots == np.arange(len(roots)))
    counts = np.bincount(image[root_nodes], minlength=len(masks))
    first_label = np.cumsum(counts) - counts
    labels = np.searchsorted(root_nodes, roots) - first_label[image] + 1
    return _unframe(labels.astype(np.int32), pixels, masks.shape), counts


def largest_component_batch(
    masks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Largest 8-connected component of each mask in an ``(n, h, w)``
    stack, without materialising label maps.

    Returns ``(components, found)``: per-image boolean masks of the
    largest component (all-False where the image has no foreground)
    and the per-image foreground indicator.  Selection is identical to
    ``largest_component(label_components(mask)[0])``: component sizes
    are the root sizes of the same pixel partition, and ties break
    towards the smallest root -- the component whose first row-major
    pixel comes first, the lowest BFS label.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3:
        raise ValueError(f"expected (n, h, w) masks, got {masks.shape}")
    pixels, image, roots = _component_roots(masks)
    sizes = np.bincount(roots, minlength=len(roots))
    root_nodes = np.flatnonzero(sizes)
    # Image ascending, then size descending, then root ascending: each
    # image's first root in this order is its largest, earliest one.
    order = root_nodes[
        np.lexsort((root_nodes, -sizes[root_nodes], image[root_nodes]))
    ]
    firsts = np.flatnonzero(np.diff(image[order], prepend=-1))
    best = np.full(len(masks), -1, dtype=np.int64)
    best[image[order[firsts]]] = order[firsts]
    found = best >= 0
    components = _unframe(roots == best[image], pixels, masks.shape)
    return components, found


def label_components_array(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Array-parallel drop-in for :func:`label_components` (one mask)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected an (h, w) mask, got {mask.shape}")
    labels, counts = label_components_batch(mask[None])
    return labels[0], int(counts[0])


def trace_boundary(mask: np.ndarray) -> np.ndarray:
    """Trace the outer boundary of the single shape in ``mask``.

    Moore-neighbour tracing.  The walk carries a *backtrack* pixel --
    the background neighbour it arrived from -- and at every step scans
    the Moore neighbourhood clockwise starting just after the
    backtrack, advancing to the first foreground pixel found.  The
    trace terminates when a (pixel, backtrack) state repeats, which is
    both a correct loop-closure test and a hard termination guarantee.

    Returns an ``(n, 2)`` array of (row, col) points in traversal
    order.  ``mask`` must contain at least one foreground pixel.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected an (h, w) mask, got {mask.shape}")
    coords = np.argwhere(mask)
    if len(coords) == 0:
        raise ValueError("mask contains no foreground pixels")
    # Start at the top-most, then left-most foreground pixel: its west
    # neighbour is guaranteed background.
    start = tuple(
        int(v) for v in coords[np.lexsort((coords[:, 1], coords[:, 0]))][0]
    )
    if len(coords) == 1:
        return np.array([start], dtype=np.int64)

    h, w = mask.shape
    # The walk is inherently sequential Python; keep each step cheap.
    # Embedding the mask in a one-pixel background frame of plain
    # bytes makes neighbour membership a single index with no bounds
    # branch or NumPy scalar boxing, and encoding the (pixel,
    # backtrack-direction) state as one int keeps the loop-closure set
    # on the fast small-int path.  The visited sequence is exactly the
    # original tuple-based walk's.
    fw = w + 2
    framed = np.zeros((h + 2, fw), dtype=np.uint8)
    framed[1:-1, 1:-1] = mask
    cells = framed.tobytes()
    moore_flat = [dr * fw + dc for dr, dc in _MOORE]

    pos = (start[0] + 1) * fw + (start[1] + 1)
    start_pos = pos
    scan_from = 0  # backtrack direction: west of start is background
    boundary: list[int] = [pos]
    seen_states = bytearray(len(cells) * 8)
    while True:
        state = pos * 8 + scan_from
        if seen_states[state]:
            break
        seen_states[state] = 1
        advanced = False
        for step in range(1, 9):
            d = (scan_from + step) % 8
            neighbour = pos + moore_flat[d]
            if cells[neighbour]:
                # Backtrack = the previously scanned (background)
                # neighbour, re-expressed as a direction from the
                # pixel we advance to.
                scan_from = _REBASE[(scan_from + step - 1) % 8][d]
                pos = neighbour
                advanced = True
                break
        if not advanced:  # isolated pixel
            break
        if pos == start_pos:
            break
        boundary.append(pos)
    points = np.array(boundary, dtype=np.int64)
    return np.stack([points // fw - 1, points % fw - 1], axis=1)


def trace_boundary_batch(
    masks: np.ndarray,
) -> list[np.ndarray | None]:
    """Moore-trace every mask of an ``(n, h, w)`` stack.

    Returns one entry per mask: ``None`` where the mask has no
    foreground, otherwise the exact ``(m, 2)`` point array
    :func:`trace_boundary` produces for that mask (a slice of one
    coordinate array).  Each mask gets one sequential walk whose step
    is one byte read of its pixel's Moore code and one ``_WALK``
    lookup.  The state-repeat, isolated-pixel and start-return exits
    keep the scalar walk's order, so the visited sequences are
    identical; ``tests/vision`` checks every 4x4 mask.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3:
        raise ValueError(f"expected (n, h, w) masks, got {masks.shape}")
    n, h, w = masks.shape
    # The scalar walk's frame: one background pixel on every side, so
    # each Moore neighbour of a foreground pixel is a flat offset that
    # stays inside its own image.
    fw = w + 2
    area = (h + 2) * fw
    framed = np.zeros((n, h + 2, fw), dtype=bool)
    framed[:, 1:-1, 1:-1] = masks
    cells = framed.ravel()
    pixels = np.flatnonzero(cells)
    offsets = [dr * fw + dc for dr, dc in _MOORE]
    bits = cells.view(np.uint8)
    code = np.zeros(len(pixels), dtype=np.uint8)
    for d, offset in enumerate(offsets):
        code |= bits[pixels + offset] << d
    code_map = np.zeros(cells.size, dtype=np.uint8)
    code_map[pixels] = code
    codes = code_map.tobytes()
    # A mask's first foreground pixel in row-major order is the scalar
    # walk's top-most, then left-most start.
    bounds = np.searchsorted(pixels, np.arange(n + 1) * area).tolist()
    walked: list[int] = []
    spans: list[tuple[int, int, int]] = []
    for i in range(n):
        if bounds[i] == bounds[i + 1]:
            continue
        base = i * area
        lane = codes[base:base + area]
        pos = start = int(pixels[bounds[i]]) - base
        back = 0  # west of start: background
        first = len(walked)
        walked.append(pos)
        seen = bytearray(area * 8)
        while True:
            state = pos * 8 + back
            if seen[state]:
                break
            seen[state] = 1
            move = _WALK[lane[pos] * 8 + back]
            if move is None:  # isolated pixel
                break
            d, back = move
            pos += offsets[d]
            if pos == start:
                break
            walked.append(pos)
        spans.append((i, first, len(walked)))
    points = np.array(walked, dtype=np.int64)
    coords = np.stack([points // fw - 1, points % fw - 1], axis=1)
    results: list[np.ndarray | None] = [None] * n
    for i, first, stop in spans:
        results[i] = coords[first:stop]
    return results


def largest_component(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """(mask, area) of the largest labelled component in a label map.

    Ties break towards the lowest label -- the component whose first
    row-major pixel comes first -- via ``argmax``'s first-maximum
    rule, the same rule for either labelling implementation since both
    number components identically.  ``labels`` must contain at least
    one nonzero label.
    """
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    best = int(sizes.argmax())
    if best == 0:
        raise ValueError("label map contains no components")
    return labels == best, int(sizes[best])


def largest_contour(mask: np.ndarray) -> Contour:
    """Boundary of the largest 8-connected component in ``mask``."""
    labels, count = label_components(mask)
    if count == 0:
        raise ValueError("mask contains no foreground pixels")
    component, area = largest_component(labels)
    points = trace_boundary(component)
    return Contour(points=points, area=area)
