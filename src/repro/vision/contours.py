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

#: The rebase table as an int8 array for vectorized lookup; the None
#: entries (non-adjacent neighbour pairs) become -1, which the trace
#: never selects (see :func:`_rebase_table`).
_REBASE_ARRAY = np.array(
    [[-1 if v is None else v for v in row] for row in _REBASE],
    dtype=np.int8,
)


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
    """Moore-trace every mask of an ``(n, h, w)`` stack in lockstep.

    Returns one entry per mask: ``None`` where the mask has no
    foreground, otherwise the exact ``(m, 2)`` point array
    :func:`trace_boundary` produces for that mask.  All walks advance
    together -- each step probes the eight Moore neighbours of every
    still-active walk with whole-batch gathers -- so the per-step
    Python overhead is paid once per *step* instead of once per
    *boundary pixel*.  The decision rule at each step (clockwise scan
    from just past the backtrack, first foreground neighbour wins,
    terminate on state repeat / isolated pixel / start return) is the
    scalar walk's, applied lane-wise, so the visited sequences are
    identical by construction; ``tests/vision`` pins the equality on
    random and degenerate masks.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3:
        raise ValueError(f"expected (n, h, w) masks, got {masks.shape}")
    n, h, w = masks.shape
    results: list[np.ndarray | None] = [None] * n
    if masks.size == 0:
        return results
    fw = w + 2
    framed = np.zeros((n, h + 2, fw), dtype=np.uint8)
    framed[:, 1:-1, 1:-1] = masks
    cells = framed.reshape(n, -1)
    flat = masks.reshape(n, -1)
    counts = flat.sum(axis=1)
    # Row-major first foreground pixel == the top-most then left-most
    # start pixel of the scalar trace.
    first = flat.argmax(axis=1)
    start_r = first // w
    start_c = first % w
    start_pos = (start_r + 1) * fw + (start_c + 1)
    for i in np.nonzero(counts == 1)[0]:
        results[i] = np.array(
            [[int(start_r[i]), int(start_c[i])]], dtype=np.int64
        )
    lanes = np.nonzero(counts > 1)[0]
    if len(lanes) == 0:
        return results
    k = len(lanes)
    moore_flat = np.array([dr * fw + dc for dr, dc in _MOORE],
                          dtype=np.int64)
    cells = cells[lanes]
    pos = start_pos[lanes].astype(np.int64)
    start = pos.copy()
    scan_from = np.zeros(k, dtype=np.int64)  # west of start: background
    seen = np.zeros((k, cells.shape[1] * 8), dtype=bool)
    capacity = 64
    out = np.zeros((k, capacity), dtype=np.int64)
    out[:, 0] = pos
    lengths = np.ones(k, dtype=np.int64)
    active = np.arange(k)
    steps = np.arange(1, 9, dtype=np.int64)
    while len(active):
        p = pos[active]
        s = scan_from[active]
        state = p * 8 + s
        # Scalar loop order per lane: check/mark the (pixel, backtrack)
        # state, scan clockwise from just past the backtrack, advance
        # to the first foreground neighbour.
        fresh = ~seen[active, state]
        seen[active[fresh], state[fresh]] = True
        active = active[fresh]
        if not len(active):
            break
        p = p[fresh]
        s = s[fresh]
        dirs = (s[:, None] + steps[None, :]) % 8
        neighbours = p[:, None] + moore_flat[dirs]
        hits = (
            cells[active[:, None], neighbours] != 0
        )
        advanced = hits.any(axis=1)
        active = active[advanced]
        if not len(active):
            break
        row = np.arange(len(advanced))[advanced]
        probe = hits[row].argmax(axis=1)  # first foreground direction
        s = s[advanced]
        d = (s + probe + 1) % 8
        # Backtrack = the last scanned background neighbour,
        # re-expressed as a direction from the advanced-to pixel.
        scan_from[active] = _REBASE_ARRAY[(s + probe) % 8, d]
        new_pos = p[advanced] + moore_flat[d]
        pos[active] = new_pos
        closing = new_pos == start[active]
        active = active[~closing]
        if not len(active):
            break
        if lengths[active].max() == capacity:
            capacity *= 2
            grown = np.zeros((k, capacity), dtype=np.int64)
            grown[:, : out.shape[1]] = out
            out = grown
        out[active, lengths[active]] = pos[active]
        lengths[active] += 1
    for row, i in enumerate(lanes):
        points = out[row, : lengths[row]]
        results[i] = np.stack([points // fw - 1, points % fw - 1], axis=1)
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
