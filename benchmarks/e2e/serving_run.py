"""Serving workloads: camera streams and Zipf replay through
:class:`~repro.serving.server.PipelineServer`.

One client (this thread) drives a fresh server per phase; the server's
one batcher thread does all inference.  Each phase starts with an
unmeasured warm-up round.

* **Open loop.**  Requests are due on a fixed periodic schedule and
  sent when due whether or not earlier ones finished.  Latency runs
  from the due time: ``(submit-call start - due) + latency_seconds``.
* **Capacity.**  A closed loop keeping ``IN_FLIGHT`` requests
  outstanding; throughput is completions over the round's wall time.

Every served result is compared bitwise with a serial
``pipeline.infer()`` of the same frame, computed before the traffic
starts; results are checked as they are collected and then dropped, so
the run's heap -- and the collector's work -- does not grow with the
number of requests served.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from benchmarks.e2e import corpus as inputs
from benchmarks.e2e.report import (
    RunOutcome,
    end_to_end,
    layer_metrics,
    nearest_rank,
    same_result,
)
from benchmarks.e2e.trace import Probes, TracedPipeline, Tracer

FRAME_SIZE = 32
MAX_BATCH = 64
IN_FLIGHT = 64
MAX_WAIT_MS = 2.0
QUEUE_CAPACITY = 1024
RESULT_TIMEOUT_S = 60.0
#: Requests in the open-loop phase's warm-up, in cache sizes, when the
#: response cache is on (otherwise two batches).
WARM_CACHE_FILLS = 4
#: Sends later than this behind schedule count as late.
LATE_S = 1e-3


#: Requests generated for the cyclic capacity schedule.
CAPACITY_SCHEDULE = 1 << 16


@dataclass(frozen=True)
class ServingWorkload:
    name: str
    architecture: str
    frames: int
    #: Corpus size of ``--quick`` self-test runs.
    quick_frames: int
    view_size: int | None
    rate: float
    cache: str = "off"
    cache_entries: int = 512
    zipf_s: float | None = None

    def corpus_size(self, quick: bool) -> int:
        return self.quick_frames if quick else self.frames


WORKLOADS = {
    w.name: w
    for w in (
        ServingWorkload("camera-parallel", "parallel", 512, 48, 96, 40.0),
        ServingWorkload(
            "camera-integrated", "integrated", 512, 48, None, 40.0
        ),
        ServingWorkload(
            "zipf-repeat", "parallel", 4096, 384, None, 200.0,
            cache="lru", zipf_s=1.0,
        ),
    )
}


class Checker:
    """Serial ``pipeline.infer()`` references, built before any traffic
    and compared bitwise with each served result as it is collected,
    so no result outlives its check."""

    def __init__(self, pipeline, corpus, indices) -> None:
        self.reference = {
            index: pipeline.infer(
                corpus.frames[index],
                qualifier_view=(
                    None if corpus.views is None else corpus.views[index]
                ),
            )
            for index in indices
        }
        self.checked = 0
        self.mismatches = 0
        self.decisions: Counter = Counter()

    def __call__(self, index: int, result) -> None:
        self.decisions[result.decision.value] += 1
        want = self.reference.get(index)
        if want is not None:
            self.checked += 1
            self.mismatches += not same_result(result, want)


class Requests:
    """Client-side record of one round: frame index, due time, send
    time, time submit returned, cache hit flag and measured latency.
    Results go to the checker when collected and are not kept."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.index: list[int] = []
        self.due: list[float] = []
        self.sent: list[float] = []
        self.returned: list[float] = []
        self.hit: list[bool] = []
        self.handles: list = []
        self.latency: list[float] = []
        self.failed = 0

    def submit(self, server, corpus, index: int, due: float) -> int:
        """Send one request; returns its position in this record."""
        sent = time.perf_counter()
        view = None if corpus.views is None else corpus.views[index]
        try:
            handle = server.submit(corpus.frames[index], qualifier_view=view)
        except Exception:  # noqa: BLE001 -- refused submissions count
            handle = None
            self.failed += 1
        returned = time.perf_counter()
        self.index.append(index)
        self.due.append(due)
        self.sent.append(sent)
        self.returned.append(returned)
        self.hit.append(handle is not None and handle.done())
        self.handles.append(handle)
        self.latency.append(float("nan"))
        return len(self.index) - 1

    def collect(self, position: int) -> None:
        """Wait for one request's outcome (a no-op once collected)."""
        handle = self.handles[position]
        if handle is None:
            return
        self.handles[position] = None
        try:
            result = handle.result(timeout=RESULT_TIMEOUT_S)
        except Exception:  # noqa: BLE001 -- failed or timed out
            self.failed += 1
            return
        self.latency[position] = handle.latency_seconds
        self.checker(self.index[position], result)

    def collect_all(self) -> None:
        for position in range(len(self.handles)):
            self.collect(position)

    def __len__(self) -> int:
        return len(self.index)

    def completion(self) -> np.ndarray:
        """Estimated completion instants (send + measured latency)."""
        return np.asarray(self.sent) + np.asarray(self.latency)

    def due_latency_ms(self) -> np.ndarray:
        lat = (
            np.asarray(self.sent) - np.asarray(self.due)
            + np.asarray(self.latency)
        )
        return 1e3 * lat[np.isfinite(lat)]


def open_loop_round(server, corpus, schedule, start, count, rate, checker):
    requests = Requests(checker)
    origin = time.perf_counter() + 2e-3
    for k in range(count):
        due = origin + k / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        requests.submit(server, corpus, int(schedule[start + k]), due)
    requests.collect_all()
    return requests, time.perf_counter() - origin


def closed_loop(server, corpus, schedule, span, position, checker,
                seconds=None, count=None):
    """Closed loop keeping ``IN_FLIGHT`` requests unfinished (a cache
    hit, finished inside ``submit``, frees its slot at once) for
    ``seconds`` or ``count`` requests, replaying ``schedule[span]``
    cyclically from ``position``.  Returns the requests, the wall time
    to the last completion and the next position."""
    requests = Requests(checker)
    outstanding: deque[int] = deque()
    base, length = span.start, span.stop - span.start
    start = time.perf_counter()
    deadline = start + (float("inf") if seconds is None else seconds)
    sent_count = 0
    while time.perf_counter() < deadline and (
        count is None or sent_count < count
    ):
        if len(outstanding) >= IN_FLIGHT:
            requests.collect(outstanding.popleft())
        index = int(schedule[base + position % length])
        sent = requests.submit(server, corpus, index, time.perf_counter())
        if requests.hit[sent]:
            requests.collect(sent)
        else:
            outstanding.append(sent)
        position += 1
        sent_count += 1
    requests.collect_all()
    return requests, time.perf_counter() - start, position


def _serving_config(workload: ServingWorkload):
    from repro.api import ServingConfig

    return ServingConfig(
        max_batch=MAX_BATCH,
        max_wait_ms=MAX_WAIT_MS,
        queue_capacity=QUEUE_CAPACITY,
        cache=workload.cache,
        cache_max_entries=workload.cache_entries,
    )


def _assign_flushes(units, requests_list):
    """Match computed requests to the flush that served them by
    completion time; returns per-unit demux end and per-request queue
    waits (seconds)."""
    starts = np.array([u.start for u in units])
    demux_end = np.array([u.end for u in units])
    waits, server_side = [], []
    for requests in requests_list:
        done = requests.completion()
        for k in range(len(requests)):
            if requests.hit[k] or not np.isfinite(done[k]):
                continue
            unit = int(np.searchsorted(starts, done[k], side="right")) - 1
            if unit < 0:
                continue
            demux_end[unit] = max(demux_end[unit], done[k])
            waits.append(max(0.0, starts[unit] - requests.sent[k]))
            server_side.append(done[k] - requests.sent[k])
    return demux_end, np.array(waits), np.array(server_side)


def _seeds(seed: int) -> dict[str, int]:
    """Independent input streams: corpus, schedule, parity sample."""
    return dict(zip(
        ("corpus", "schedule", "sample"),
        (int(s.generate_state(1)[0]) for s in
         np.random.SeedSequence(seed).spawn(3)),
    ))


def setup(workload_name: str, seed: int, quick: bool):
    """Everything before the first timed phase: model, pipeline, the
    rendered corpus and one warm-up flush."""
    from repro.api import PipelineConfig, build_pipeline
    from repro.models.smallcnn import small_cnn

    workload = WORKLOADS[workload_name]
    model = small_cnn(input_size=FRAME_SIZE, n_classes=inputs.N_CLASSES)
    pipeline = build_pipeline(
        PipelineConfig(
            architecture=workload.architecture,
            pin_sobel=workload.architecture == "integrated",
            name=f"e2e-{workload.name}",
        ),
        model,
    )
    corpus = inputs.render_corpus(
        np.random.default_rng(_seeds(seed)["corpus"]),
        workload.corpus_size(quick), FRAME_SIZE, workload.view_size,
    )
    warm = slice(0, MAX_BATCH)
    pipeline.infer_batch(
        corpus.frames[warm],
        None if corpus.views is None else corpus.views[warm],
    )
    return pipeline, corpus


def run(workload_name, seed, plan, trace, log) -> RunOutcome:
    from repro.api import PipelineServer

    workload = WORKLOADS[workload_name]
    seeds = _seeds(seed)
    n_frames = workload.corpus_size(plan.quick)
    pipeline, corpus = setup(workload_name, seed, plan.quick)

    rate = workload.rate
    warm_count = (
        WARM_CACHE_FILLS * workload.cache_entries
        if workload.cache == "lru" else 2 * MAX_BATCH
    )
    round_count = int(rate * plan.open_round_s)
    open_total = warm_count + plan.open_rounds * round_count
    schedule_rng = np.random.default_rng(seeds["schedule"])
    length = open_total + CAPACITY_SCHEDULE
    if workload.zipf_s is None:
        schedule = inputs.cyclic_schedule(schedule_rng, n_frames, length)
    else:
        schedule = inputs.zipf_schedule(
            schedule_rng, n_frames, length, workload.zipf_s
        )

    check_started = time.perf_counter()
    reference = np.unique(schedule)
    if len(reference) > plan.reference_frames:
        reference = np.sort(np.random.default_rng(seeds["sample"]).choice(
            reference, size=plan.reference_frames, replace=False
        ))
    checker = Checker(pipeline, corpus, reference.tolist())
    check_s = time.perf_counter() - check_started

    tracer = Tracer() if trace else None
    target = TracedPipeline(pipeline, tracer) if trace else pipeline
    config = _serving_config(workload)
    phases = {}

    # -- open loop --------------------------------------------------------
    open_rounds: list[Requests] = []
    open_walls = []
    with PipelineServer(target, config) as server:
        # Closed-loop warm-up over the schedule's first requests: quick,
        # and long enough to bring a response cache to steady state.
        warm, _, _ = closed_loop(
            server, corpus, schedule, range(0, warm_count), 0, checker,
            count=warm_count,
        )
        phases["open-loop warm-up"] = [warm]
        before = server.stats()
        measured_from = time.perf_counter()
        with Probes(tracer) if trace else nullcontext():
            for r in range(plan.open_rounds):
                requests, wall = open_loop_round(
                    server, corpus, schedule,
                    warm_count + r * round_count, round_count, rate, checker,
                )
                open_rounds.append(requests)
                open_walls.append(wall)
        measured_to = time.perf_counter()
        after = server.stats()
    phases["open-loop"] = open_rounds

    # -- capacity ------------------------------------------------------------
    capacity_requests: list[Requests] = []
    capacity_rounds = []
    with PipelineServer(target, config) as server:
        capacity_span = range(open_total, len(schedule))
        warm, _, position = closed_loop(
            server, corpus, schedule, capacity_span, 0, checker,
            seconds=plan.warmup_s,
        )
        phases["capacity warm-up"] = [warm]
        capacity_from = time.perf_counter()
        with Probes(tracer) if trace else nullcontext():
            for _ in range(plan.capacity_rounds):
                requests, wall, position = closed_loop(
                    server, corpus, schedule, capacity_span, position,
                    checker, seconds=plan.capacity_round_s,
                )
                capacity_requests.append(requests)
                capacity_rounds.append(
                    (len(requests) - requests.failed, wall)
                )
    phases["capacity"] = capacity_requests

    # -- end-to-end metrics --------------------------------------------------
    latency_rounds = [r.due_latency_ms() for r in open_rounds]
    e2e = end_to_end(latency_rounds, capacity_rounds)
    lag_ms = 1e3 * np.concatenate([
        np.asarray(r.sent) - np.asarray(r.due) for r in open_rounds
    ])
    late_frac = float(np.mean(lag_ms > 1e3 * LATE_S))

    phase_counts = {}
    attempted = failed = 0
    for name, rounds in phases.items():
        sent = sum(len(r) for r in rounds)
        bad = sum(r.failed for r in rounds)
        phase_counts[name] = {"sent": sent, "succeeded": sent - bad,
                              "failed": bad}
        attempted += sent
        failed += bad
        log(f"phase {name}: sent {sent} succeeded {sent - bad} "
            f"failed {bad}")

    hits = after.cache_hits - before.cache_hits
    joins = after.coalesced_joins - before.coalesced_joins
    misses = after.cache_misses - before.cache_misses
    lookups = hits + joins + misses
    details = {
        "architecture": workload.architecture,
        "frames": n_frames,
        "frame_size": FRAME_SIZE,
        "view_size": workload.view_size,
        "rate_per_s": rate,
        "corpus_digest": corpus.digest,
        "schedule_digest": inputs.schedule_digest(schedule),
        "reference_frames": len(checker.reference),
        "reference_decision_mix": dict(sorted(Counter(
            result.decision.value for result in checker.reference.values()
        ).items())),
        "served_decision_mix": dict(sorted(checker.decisions.items())),
        "checked_results": checker.checked,
        "parity_mismatches": checker.mismatches,
        "check_s": check_s,
        "phases": phase_counts,
        "open_loop": {
            "requests_per_round": round_count,
            "round_mean_ms": [float(np.mean(r)) for r in latency_rounds],
            "round_p90_ms": [nearest_rank(r, 0.90) for r in latency_rounds],
            "all_rounds_p99_ms": nearest_rank(
                np.concatenate(latency_rounds), 0.99
            ),
            "lag_ms_p50": nearest_rank(lag_ms, 0.50),
            "lag_ms_p99": nearest_rank(lag_ms, 0.99),
            "late_frac": late_frac,
        },
        "capacity_rounds_per_s": [done / wall for done, wall in
                                  capacity_rounds],
        "cache": {
            "mode": workload.cache,
            "hit_rate": (hits + joins) / lookups if lookups else 0.0,
            "expected_hit_rate": (
                inputs.lru_hit_rate(
                    schedule[:open_total].tolist(),
                    workload.cache_entries, warm_count,
                ) if workload.cache == "lru" else 0.0
            ),
            "hits": hits,
            "joins": joins,
            "misses": misses,
            "evictions": after.cache_evictions - before.cache_evictions,
        },
    }

    layers = {}
    if trace:
        layers = _serving_layers(
            tracer, (measured_from, measured_to), open_rounds,
            sum(open_walls), (capacity_from, capacity_requests),
            details["cache"],
        )
        layers["loadgen.late_frac"] = late_frac
    return RunOutcome(
        correct=(
            checker.mismatches == 0 and failed == 0 and checker.checked > 0
        ),
        attempted=attempted,
        failed=failed,
        e2e=e2e,
        layers=layers,
        details=details,
        tracer=tracer,
    )


def _serving_layers(tracer, open_window, open_rounds, open_wall,
                    capacity, cache) -> dict:
    """Per-layer metrics of a traced serving run: serving behaviour from
    the open-loop flushes, layer timings per capacity flush."""
    # Serving behaviour under the open-loop schedule.
    units = [u for u in tracer.units(open_window[0])
             if u.end <= open_window[1]]
    demux_end, waits, server_side = _assign_flushes(units, open_rounds)
    flush_total = demux_end - np.array([u.start for u in units])
    submit = sum(
        float(np.sum(np.asarray(r.returned) - np.asarray(r.sent)))
        for r in open_rounds
    )
    metrics = {
        "serving.queue_wait_share": (
            float(waits.sum() / server_side.sum()) if len(waits) else 0.0
        ),
        "serving.busy_frac": float(flush_total.sum() / open_wall),
        "serving.batch_size.mean": (
            float(len(waits) / len(units)) if len(units) else 0.0
        ),
        "serving.submit_share": submit / open_wall,
        "serving.cache_hit_rate": cache["hit_rate"],
        "serving.cache_joins": cache["joins"],
        "serving.cache_evictions": cache["evictions"],
    }
    capacity_from, capacity_requests = capacity
    flushes = tracer.units(capacity_from)
    ends, _, _ = _assign_flushes(flushes, capacity_requests)
    flushes = list(zip(flushes, ends))
    metrics.update(layer_metrics(tracer.spans, flushes))
    metrics["trace_overhead_frac"] = tracer.overhead(flushes)
    return metrics

