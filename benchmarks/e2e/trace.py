"""Per-layer tracing from outside the program.

The benchmark records spans by wrapping the public entry points of
each layer for the duration of a traced phase -- no code under
``src/`` changes.  A :class:`Tracer` keeps spans in memory; a
:class:`Probes` context installs the wrappers and restores every
original attribute on exit.

Spans nest per thread (one stack per thread); the root of each tree is
the *unit of work* the orchestration layer dispatches into the hybrid:
one serving flush (``serving.flush``, opened by :class:`TracedPipeline`)
or one campaign trial (``campaigns.trial``).  Self time is a span's
duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Names of the per-unit root spans.
UNIT_ROOTS = ("serving.flush", "campaigns.trial")


class Span:
    """One timed call: name, interval, causing span, annotations."""

    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: Span | None) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def root(self) -> Span:
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """In-memory span recorder shared by every probe of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: True while a :class:`Probes` context is installed.
        self.active = False
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, annotate=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``;
        ``annotate(span, args, result)`` may attach attributes."""
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if annotate is not None:
            annotate(span, args, result)
        return result

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)

        return traced

    def units(self, since: float = float("-inf")) -> list[Span]:
        """Root spans of work units that started at or after ``since``."""
        return [
            span for span in self.spans
            if span.parent is None and span.name in UNIT_ROOTS
            and span.start >= since
        ]

    def overhead(self, units) -> float:
        """Estimated share of the units' time that tracing added: the
        spans recorded inside them times the measured cost of one span.

        Comparing traced with untraced rounds would be the direct
        measure, but the host's speed drifts by more than the effect
        between rounds; the cost of a span is measured here on a no-op,
        best of several repetitions."""
        roots = {id(unit) for unit, _ in units}
        spans = sum(id(span.root) in roots for span in self.spans)
        busy = sum(end - unit.start for unit, end in units)
        return spans * _span_cost() / busy if busy > 0 else 0.0

    def export(self, origin: float) -> list[list]:
        """Spans as compact rows ``[id, name, start_us, end_us,
        parent_id, unit_id]`` (times relative to ``origin``)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        rows = []
        for index, span in enumerate(self.spans):
            parent = span.parent
            rows.append([
                index,
                span.name,
                round((span.start - origin) * 1e6, 1),
                round((span.end - origin) * 1e6, 1),
                None if parent is None else ids[id(parent)],
                ids[id(span.root)],
            ])
        return rows


def _span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a plain call (best of
    ``repeats``), measured on a throwaway tracer."""
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, time.perf_counter() - started - plain)
    return max(best, 0.0) / calls


# ---------------------------------------------------------------------------
# Probes: the wrapped public entry points of each layer
# ---------------------------------------------------------------------------


def _annotate_reliable(span: Span, args, result) -> None:
    _, report = result
    span.attrs = {
        "images": int(len(args[1])),
        "operations": report.operations,
        "errors_detected": report.errors_detected,
        "rollbacks": report.rollbacks,
        "persistent_failures": report.persistent_failures,
    }


def _annotate_verdicts(span: Span, args, result) -> None:
    span.attrs = {
        "unavailable": sum(not verdict.reliable for verdict in result),
    }


def _layer_kind(cls) -> str:
    name = cls.__name__
    if name.startswith("Conv"):
        return "conv"
    if name == "Dense":
        return "dense"
    if "Pool" in name:
        return "pool"
    return "other"


def _layer_classes():
    from repro.nn.layers.base import Layer

    found, pending = [], list(Layer.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "forward" in vars(cls):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def probe_points() -> list[tuple[object, str, str, object]]:
    """Every ``(owner, attribute, span name, annotate)`` the probes
    wrap.  Batched vision and SAX stages are wrapped where the batched
    qualifier engine binds them, so scalar paths stay untouched."""
    import repro.api
    import repro.core.qualifier as qualifier_module
    import repro.core.qualifier_batch as batch_module
    from repro.api.pipeline import HybridPipeline
    from repro.core.qualifier import ShapeQualifier
    from repro.nn.network import Sequential
    from repro.reliable.executor import ReliableConv2D
    from repro.sax.sax import SaxEncoder

    points = [
        (HybridPipeline, "infer_batch", "hybrid", None),
        (HybridPipeline, "infer", "hybrid", None),
        (Sequential, "forward", "nn", None),
        (Sequential, "forward_until", "nn", None),
        (Sequential, "forward_from", "nn", None),
        (ReliableConv2D, "forward", "reliable", _annotate_reliable),
        (ShapeQualifier, "check_batch", "qualifier", _annotate_verdicts),
        (ShapeQualifier, "check_feature_map_batch", "qualifier",
         _annotate_verdicts),
        (ShapeQualifier, "check", "qualifier.scalar", None),
        (ShapeQualifier, "check_feature_map", "qualifier.scalar", None),
        (batch_module, "edge_map_batch", "vision.frontend", None),
        (batch_module, "binary_dilate_batch", "vision.frontend", None),
        (batch_module, "largest_component_batch", "vision.label", None),
        (batch_module, "trace_boundary_batch", "vision.trace", None),
        (batch_module, "centroid_distance_series_batch", "vision.series",
         None),
        (batch_module, "symbols_to_words", "sax.words", None),
        (SaxEncoder, "symbols_batch", "sax.symbols", None),
        (qualifier_module, "mindist_profile", "sax.mindist", None),
        (repro.api, "build_pipeline", "campaigns.build", None),
    ]
    points.extend(
        (cls, "forward", f"nn.{_layer_kind(cls)}", None)
        for cls in _layer_classes()
    )
    return points


class Probes:
    """Context manager installing the tracing wrappers.

    Wraps every :func:`probe_points` attribute plus the ``"pipeline"``
    campaign target (re-registered through the public registry), and
    restores each original object on exit -- also when the body
    raises.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []
        self._target = None

    def __enter__(self) -> Probes:
        import repro.campaigns  # noqa: F401 -- registers the targets
        from repro.api import CAMPAIGN_TARGETS

        try:
            for owner, attr, name, annotate in probe_points():
                original = vars(owner)[attr]
                wrapped = self.tracer.wrap(name, original, annotate)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, original))
            self._target = CAMPAIGN_TARGETS.get("pipeline")
            CAMPAIGN_TARGETS.register(
                "pipeline",
                self.tracer.wrap("campaigns.trial", self._target),
                overwrite=True,
            )
        except BaseException:
            self._uninstall()
            raise
        self.tracer.active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        from repro.api import CAMPAIGN_TARGETS

        self.tracer.active = False
        if self._target is not None:
            CAMPAIGN_TARGETS.register("pipeline", self._target, overwrite=True)
            self._target = None
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def probe_targets() -> list[tuple[object, str, object]]:
    """``(owner, attr, current object)`` for every probe point, so a
    caller can check that tracing left nothing wrapped behind."""
    import repro.campaigns  # noqa: F401 -- registers the targets
    from repro.api import CAMPAIGN_TARGETS

    current = [
        (owner, attr, vars(owner)[attr])
        for owner, attr, _, _ in probe_points()
    ]
    current.append((CAMPAIGN_TARGETS, "pipeline",
                    CAMPAIGN_TARGETS.get("pipeline")))
    return current


class TracedPipeline:
    """The pipeline as :class:`~repro.serving.server.PipelineServer`
    sees it: while probes are installed, every ``infer_batch`` call (one
    flush group) opens a ``serving.flush`` root span -- the seam the
    chaos layer's proxy also uses."""

    def __init__(self, pipeline, tracer: Tracer) -> None:
        self._pipeline = pipeline
        self._tracer = tracer
        self.config = pipeline.config

    def infer_batch(self, images, qualifier_views=None):
        if not self._tracer.active:
            return self._pipeline.infer_batch(
                images, qualifier_views=qualifier_views
            )
        return self._tracer.call(
            "serving.flush",
            self._pipeline.infer_batch,
            (images,),
            {"qualifier_views": qualifier_views},
        )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def unit_breakdown(units: list[Span], spans: list[Span]) -> list[dict]:
    """Per unit: total duration and self time of every span name.

    Returns one dict per unit, ``{"unit": seconds, "<name>": seconds,
    "<name>.self": seconds, ...}`` plus summed annotations under
    ``"attrs"``.
    """
    index = {id(unit): i for i, unit in enumerate(units)}
    rows = [
        {"unit": unit.duration, "attrs": defaultdict(int)} for unit in units
    ]
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.duration
    for span in spans:
        row_index = index.get(id(span.root))
        if row_index is None:
            continue
        row = rows[row_index]
        row[span.name] = row.get(span.name, 0.0) + span.duration
        row[f"{span.name}.self"] = (
            row.get(f"{span.name}.self", 0.0)
            + span.duration - child_time[id(span)]
        )
        if span.name == "qualifier.scalar" and (
            span.parent is not None and span.parent.name == "qualifier"
        ):
            row["attrs"]["qualifier_repairs"] += 1
        if span.attrs:
            for key, value in span.attrs.items():
                row["attrs"][f"{span.name}.{key}"] += value
    return rows

