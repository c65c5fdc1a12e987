"""Concurrent micro-batching server around a hybrid pipeline.

The deployment gap this closes: the batched engines (vectorized
reliable conv, batched qualifier, batch-invariant CNN forward) make
``infer_batch`` several times cheaper per image than ``infer``, but
real traffic arrives one image per request.  :class:`PipelineServer`
accepts single-image submissions from any number of client threads and
transparently coalesces them into ``infer_batch`` calls -- flushing on
whichever comes first, ``max_batch`` requests or ``max_wait_ms``
elapsed since the oldest queued request.

The load-bearing guarantee is **parity, not just speed**: every
per-request result is bitwise identical to what a serial
``pipeline.infer()`` call would have produced, *regardless of how
requests interleave into micro-batches*.  This is exactly what the
batched engines' per-image bitwise stability buys (each stage's
arithmetic for image ``i`` is independent of which other images share
its batch); the serving tests and throughput benchmark assert it
rather than assume it.

Threading model: one batcher thread owns the pipeline and performs all
inference.  The pipeline is deliberately *not* shared between
concurrent ``infer_batch`` calls -- a fault-injected execution unit
draws every fault from one random stream, so two in-flight calls would
split that stream by thread timing and no served result could be
replayed.  Micro-batching, not thread parallelism, is where the
throughput comes from.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable

import numpy as np

from repro.serving.cache import ResponseCache
from repro.serving.config import ServingConfig
from repro.serving.stats import ServerStats, StatsRecorder


class ServerError(RuntimeError):
    """Base class for serving-layer errors."""


class ServerClosed(ServerError):
    """Submission attempted on a server that is not accepting work."""


class ServerOverloaded(ServerError):
    """Backpressure refused a submission (bounded queue at capacity)."""


class BatcherCrash(BaseException):
    """Kills the batcher thread from inside a flush -- the crash seam
    the chaos layer's BATCHER_CRASH fault injects (see
    :mod:`repro.chaos`).

    Deliberately derives from ``BaseException``: ``_flush`` absorbs
    ``Exception``-level pipeline failures into per-request errors, but
    a crash must escape that demux so it exercises the serve loop's
    death handler -- which fails every in-flight and queued request
    with full accounting, the behaviour a real batcher death (OOM,
    interpreter shutdown) gets.  Anything that raises this from a
    pipeline receives the same accounted-crash semantics.
    """


class PendingResult:
    """Future-like handle for one submitted request.

    The batcher completes it exactly once -- with a
    :class:`~repro.core.hybrid.HybridResult`, or with the exception the
    pipeline raised, or with :class:`ServerClosed` if the server was
    stopped without draining.
    """

    __slots__ = ("_event", "_result", "_error", "_submitted_at",
                 "_latency_s")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None
        self._submitted_at = time.perf_counter()
        self._latency_s: float | None = None

    # -- batcher side ----------------------------------------------------
    def _complete(self, result) -> None:
        self._result = result
        self._latency_s = time.perf_counter() - self._submitted_at
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._latency_s = time.perf_counter() - self._submitted_at
        self._event.set()

    # -- client side -----------------------------------------------------
    def done(self) -> bool:
        """True once a result or an error is available."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block for the result; re-raises the pipeline's exception if
        the batch failed, raises ``TimeoutError`` on timeout."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"no result within {timeout} s (server busy or stopped?)"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block like :meth:`result` but return the error (or None)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"no result within {timeout} s")
        return self._error

    @property
    def latency_seconds(self) -> float | None:
        """Submit-to-completion latency; None while pending."""
        return self._latency_s


class _Request:
    __slots__ = ("image", "qualifier_view", "pending", "cache_key")

    def __init__(
        self,
        image: np.ndarray,
        qualifier_view: np.ndarray | None,
        pending: PendingResult,
    ) -> None:
        self.image = image
        self.qualifier_view = qualifier_view
        self.pending = pending
        #: Set only on a cache *leader*: the key whose single flight
        #: this request carries.  A request ends through
        #: :meth:`PipelineServer._publish_cached_result` or
        #: :meth:`PipelineServer._end`, and both close the flight, so
        #: joined followers never hang.
        self.cache_key: tuple[str, str] | None = None


def _closed() -> ServerClosed:
    return ServerClosed("server stopped without draining")


class PipelineServer:
    """Micro-batching front-end for a :class:`~repro.api.pipeline.
    HybridPipeline`.

    Parameters
    ----------
    pipeline:
        The pipeline to serve.  Anything with the facade's
        ``infer_batch(images, qualifier_views=None)`` shape works; the
        batcher thread becomes its sole user while the server runs.
    config:
        Batching and backpressure knobs
        (:class:`~repro.serving.config.ServingConfig`); defaults apply
        when omitted.
    on_degraded:
        Optional graceful-degradation hook: called from the batcher
        thread with each completed :class:`~repro.core.hybrid.
        HybridResult` whose decision is qualifier-flagged (rejected by
        the qualifier, shape without class, or qualifier unavailable
        -- see ``HybridResult.flagged``).  This is *routing*, not
        replacement: the submitting client still receives the result;
        the hook feeds whatever supervisory layer watches the fleet.
        Exceptions it raises are swallowed (counted as served).

    Use as a context manager for exception-safe draining::

        with PipelineServer(pipeline, ServingConfig(max_batch=32)) as srv:
            pending = [srv.submit(image) for image in images]
            results = [p.result() for p in pending]
    """

    #: Thread-safety contract, machine-checked by the LOCK-GUARD lint
    #: rule: these attributes are written only under ``_state_lock``.
    #: The deliberate lock-free *reads* (optimistic gates on the
    #: submit/batcher hot paths) each carry an allow pragma with the
    #: reasoning.  ``_inflight`` is not listed: it is owned by the
    #: batcher thread alone (its crash handler included).
    _guarded_by = {"_state_lock": ("_accepting", "_draining", "_thread")}

    #: Helpers extracted from locked regions.  Declaring the lock they
    #: need keeps them honest both ways: the lexical LOCK-GUARD rule
    #: checks their guarded-attribute accesses as if the lock were
    #: held, and the project pass (LOCK-CALL) verifies every call site
    #: actually holds it.
    _requires_lock = {
        "_launch_batcher": ("_state_lock",),
        "_close_intake": ("_state_lock",),
    }

    def __init__(
        self,
        pipeline,
        config: ServingConfig | None = None,
        on_degraded: Callable | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.config = config or ServingConfig()
        self.on_degraded = on_degraded
        self._queue: queue.Queue[_Request | None] = queue.Queue(
            maxsize=self.config.queue_capacity
        )
        self._recorder = StatsRecorder()
        #: Content-addressed response cache (None under cache="off").
        #: Safe because served results are bitwise-deterministic per
        #: (input digest, pipeline content hash) -- see
        #: repro.serving.cache.  Duck-typed pipelines without a
        #: PipelineConfig hash as "" (the cache is private to this
        #: server instance, so an empty hash cannot collide across
        #: differently-wired pipelines).
        self._cache: ResponseCache | None = None
        if self.config.cache == "lru":
            pipeline_config = getattr(pipeline, "config", None)
            content_hash = (
                pipeline_config.content_hash()
                if hasattr(pipeline_config, "content_hash")
                else ""
            )
            self._cache = ResponseCache(
                self.config.cache_max_entries, config_hash=content_hash
            )
        self._thread: threading.Thread | None = None
        self._accepting = False
        self._draining = True
        self._state_lock = threading.Lock()
        #: Requests popped from the queue but not yet demuxed; the
        #: batcher's crash handler fails these so no handle ever
        #: hangs on a dead thread.
        self._inflight: list[_Request] = []

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        """True between a successful ``start()`` and ``stop()``."""
        # repro: allow[LOCK-GUARD] -- single racy snapshot read; any
        # answer is stale the moment it returns, lock or no lock, and
        # is_alive() tolerates a thread in any state.
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> PipelineServer:
        """Launch the batcher thread; idempotence is an error (a
        second ``start`` on a running server raises)."""
        with self._state_lock:
            if self.running:
                raise ServerError("server already running")
            self._launch_batcher()
        return self

    def _launch_batcher(self) -> None:
        """Arm the intake gates and start the batcher thread."""
        self._draining = True
        self._thread = threading.Thread(
            target=self._serve_loop,
            name="pipeline-server-batcher",
            daemon=True,
        )
        self._accepting = True
        self._recorder.mark_started()
        self._thread.start()

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and shut the batcher down.

        ``drain=True`` (default) serves every already-queued request
        before returning; ``drain=False`` fails queued requests with
        :class:`ServerClosed`.  Calling stop on a stopped server is a
        no-op.
        """
        with self._state_lock:
            thread = self._thread
            if thread is None:
                return
            self._close_intake(drain)
        thread.join(timeout)
        if thread.is_alive():
            raise ServerError(
                f"batcher did not stop within {timeout} s"
            )
        with self._state_lock:
            self._thread = None
        # Fail any stragglers that raced past the closed gate after
        # the batcher's final drain, so no PendingResult ever hangs.
        self._cancel_remaining()
        self._recorder.mark_stopped()

    def _close_intake(self, drain: bool) -> None:
        """Close the submission gate and nudge the batcher awake."""
        self._accepting = False
        self._draining = drain
        try:
            # Sentinel unblocks the batcher's blocking get.  A full
            # queue can refuse it; the batcher then notices
            # ``_accepting`` on its own (it re-checks around every
            # flush and idle poll), so stop still terminates.
            self._queue.put_nowait(None)
        except queue.Full:
            pass

    def __enter__(self) -> PipelineServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- submission ------------------------------------------------------
    def submit(
        self,
        image: np.ndarray,
        qualifier_view: np.ndarray | None = None,
        use_cache: bool = True,
    ) -> PendingResult:
        """Enqueue one image; returns immediately with the pending
        handle (unless backpressure applies -- see below).

        ``qualifier_view`` optionally gives the dependable block a
        different rendering of the same scene, exactly as
        ``pipeline.infer(image, qualifier_view=...)`` would; requests
        with and without views may be freely mixed (the batcher groups
        compatible requests, see :meth:`_flush`).

        Response cache (``config.cache="lru"``): the request's inputs
        are digested (:func:`~repro.serving.cache.response_digest`)
        before any dtype cast, and the cache resolves the key -- a
        stored result completes the handle immediately (in the
        submitting thread, degradation routing included), a duplicate
        of an in-flight request coalesces onto that single flight, and
        only a genuinely new key enters the batch queue.
        ``use_cache=False`` opts this one submission out entirely: it
        is neither answered from, nor joined to, nor published into
        the cache.

        Backpressure (``config.overflow``): with ``"block"`` a full
        queue blocks the caller up to ``submit_timeout_s`` (forever
        when None) and then raises :class:`ServerOverloaded`; with
        ``"reject"`` a full queue raises immediately.  Either way the
        rejection is counted in :meth:`stats`.
        """
        # repro: allow[LOCK-GUARD] -- optimistic gate: a GIL-atomic
        # bool read; the post-enqueue re-check below (plus stop()'s
        # final _cancel_remaining) closes the race window, so taking
        # the lock here would buy nothing but submit-path contention.
        if not self._accepting:
            raise ServerClosed("server is not accepting submissions")
        raw_image = np.asarray(image)
        raw_view = (
            None if qualifier_view is None else np.asarray(qualifier_view)
        )
        request = _Request(
            np.asarray(raw_image, dtype=np.float32),
            None
            if raw_view is None
            else np.asarray(raw_view, dtype=np.float32),
            PendingResult(),
        )
        if self._cache is not None and use_cache:
            # Key over the *submitted* storage words (pre-cast): any
            # bit difference in what the caller handed us keys
            # distinctly, so the cache can only under-share.
            key = self._cache.key_for(raw_image, raw_view)
            outcome, cached = self._cache.lookup_or_join(
                key, request.pending
            )
            self._recorder.record_lookup(outcome)
            if outcome == "hit":
                self._deliver(request.pending, cached, cached=True)
                return request.pending
            if outcome == "joined":
                return request.pending
            request.cache_key = key
        try:
            if self.config.overflow == "reject":
                self._queue.put_nowait(request)
            else:
                self._queue.put(
                    request, timeout=self.config.submit_timeout_s
                )
        except queue.Full:
            self._recorder.record_rejected()
            # A refused leader must close its flight: followers that
            # joined during the enqueue attempt fail with it.  They
            # were already counted submitted, so they end cancelled
            # (accepted but abandoned).  The leader itself was never
            # accepted: its caller gets the raise, not the handle.
            self._end(
                request,
                ServerOverloaded(
                    "coalesced onto a submission that backpressure "
                    "refused"
                ),
                followers_only=True,
            )
            raise ServerOverloaded(
                f"queue at capacity ({self.config.queue_capacity}); "
                f"overflow policy {self.config.overflow!r}"
            ) from None
        self._recorder.record_submitted()
        # repro: allow[LOCK-GUARD] -- the documented post-enqueue
        # re-check pairing with the optimistic gate above.
        if not self._accepting and not self.running:
            # The server shut down while this submission was in
            # flight; the batcher will never pop it -- fail it now
            # rather than strand the caller on a dead queue.
            self._cancel_remaining()
        return request.pending

    # -- metrics ---------------------------------------------------------
    def stats(self) -> ServerStats:
        """A consistent snapshot of the server's counters."""
        return self._recorder.snapshot(
            self._queue.qsize(),
            cache_entries=(
                len(self._cache) if self._cache is not None else 0
            ),
        )

    # -- batcher ---------------------------------------------------------
    def _serve_loop(self) -> None:
        try:
            self._serve_until_stopped()
        except BaseException as error:  # noqa: BLE001 -- must not hang
            # The loop itself failed (only _flush's per-group work is
            # individually guarded -- e.g. a MemoryError while
            # stacking a batch).  A dead batcher must not strand
            # blocked clients: fail everything still queued so every
            # PendingResult completes with the error instead of
            # hanging forever.
            failure = ServerError(f"batcher thread died: {error!r}")
            failure.__cause__ = error
            for request in self._inflight:
                self._end(request, failure)
            self._cancel_remaining(failure)
            with self._state_lock:
                self._accepting = False

    def _serve_until_stopped(self) -> None:
        max_wait = self.config.max_wait_ms / 1e3
        while True:
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                # repro: allow[LOCK-GUARD] -- batcher-side flag read:
                # written under lock by stop(), read lock-free here so
                # the idle poll never contends with submitters; a
                # stale read only delays shutdown by one 50 ms poll.
                if not self._accepting:
                    break
                continue
            # Batcher-side flag reads; worst case is one extra pass.
            if item is None or (
                not self._accepting and not self._draining  # repro: allow[LOCK-GUARD] -- see poll-loop note
            ):
                # repro: allow[LOCK-GUARD] -- see above.
                if self._draining:
                    self._drain_remaining()
                else:
                    if item is not None:
                        self._end(item, _closed())
                    self._cancel_remaining()
                break
            batch = [item]
            self._inflight = batch  # crash handler's view of the batch
            stopping = False
            # Adaptive coalescing: sweep whatever is already queued
            # (a burst batches immediately, with no timer in the way),
            # then wait out the remainder of ``max_wait_ms`` for the
            # batch to fill.
            deadline = time.perf_counter() + max_wait
            while len(batch) < self.config.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    try:
                        extra = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if extra is None:
                    stopping = True
                    break
                # A non-draining stop whose sentinel was refused by a
                # full queue (see _close_intake) has no sentinel for
                # this sweep to trip over: re-check the gates after
                # every pop, or the sweep keeps coalescing -- and
                # flushing -- requests the stop already promised to
                # fail with ServerClosed.
                # repro: allow[LOCK-GUARD] -- batcher-side flag read
                # (see the poll-loop justification above).
                if not self._accepting and not self._draining:
                    self._end(extra, _closed())
                    stopping = True
                    break
                batch.append(extra)
            self._flush(batch)
            self._inflight = []
            if stopping:
                # repro: allow[LOCK-GUARD] -- batcher-side flag read
                # (see the poll-loop justification above).
                if self._draining:
                    self._drain_remaining()
                else:
                    self._cancel_remaining()
                break

    def _drain_remaining(self) -> None:
        """Serve whatever is still queued, in arrival order, in
        ``max_batch``-sized flushes."""
        batch: list[_Request] = []
        self._inflight = batch
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                continue
            batch.append(item)
            if len(batch) == self.config.max_batch:
                self._flush(batch)
                batch = []
                self._inflight = batch
        if batch:
            self._flush(batch)
        self._inflight = []

    def _cancel_remaining(self, error: BaseException | None = None) -> None:
        """End everything still queued, counted cancelled: with
        ``error`` when the batcher died, else with :class:`ServerClosed`."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                self._end(item, _closed() if error is None else error)

    def _flush(self, batch: list[_Request]) -> None:
        """Run one micro-batch and demux results to their requests.

        Requests are grouped into ``infer_batch``-compatible runs --
        same image shape, and views either absent or present with one
        shape -- so heterogeneous traffic (mixed resolutions, mixed
        view usage) batches as far as possible and never errors
        because of *other* requests in the flush.  Parity holds within
        any grouping because every batched stage is per-image
        bitwise-stable.
        """
        groups: dict[tuple, list[_Request]] = {}
        for request in batch:
            view = request.qualifier_view
            key = (
                request.image.shape,
                None if view is None else view.shape,
            )
            groups.setdefault(key, []).append(request)
        # Each request is counted where its handle completes; the
        # flush itself is counted when it ends, crashed (BatcherCrash
        # below, MemoryError while stacking) or not.
        try:
            for (image_shape, view_shape), requests in groups.items():
                try:
                    images = np.stack([r.image for r in requests])
                    views = (
                        None
                        if view_shape is None
                        else np.stack(
                            [r.qualifier_view for r in requests]
                        )
                    )
                    if views is None:
                        results = list(self.pipeline.infer_batch(images))
                    else:
                        results = list(
                            self.pipeline.infer_batch(
                                images, qualifier_views=views
                            )
                        )
                    if len(results) != len(requests):
                        raise ServerError(
                            f"pipeline returned {len(results)} results "
                            f"for {len(requests)} requests"
                        )
                except BatcherCrash:
                    # The deliberate crash seam: escape the demux so
                    # the serve loop's death handler fails this group
                    # (and everything queued) with full accounting.
                    raise
                except BaseException as error:  # noqa: BLE001 -- demuxed
                    for request in requests:
                        self._end(request, error, failed=True)
                    continue
                for request, result in zip(requests, results):
                    self._deliver(request.pending, result, cached=False)
                    self._publish_cached_result(request, result)
        finally:
            self._recorder.record_flush(len(batch))

    def _deliver(
        self, pending: PendingResult, result, cached: bool
    ) -> None:
        """Complete one handle with ``result`` and count the delivery
        once.  A qualifier-flagged result is routed to the degradation
        hook first -- once per logical request, cached or computed."""
        flagged = bool(getattr(result, "flagged", False))
        if flagged:
            self._route_degraded(result)
        pending._complete(result)
        self._recorder.record_delivery(
            pending.latency_seconds, cached, flagged
        )

    def _end(
        self,
        request: _Request,
        error: BaseException,
        failed: bool = False,
        followers_only: bool = False,
    ) -> None:
        """End ``request`` with ``error``: fail its handle if still
        pending, close its cache flight uncached (the key recomputes
        next time), and fail every follower that joined it.  All of
        them are counted once, as ``failed`` (the pipeline raised) or
        ``cancelled``.  ``followers_only`` leaves the request's own
        handle alone (a refused leader's caller gets a raise)."""
        ended = (
            []
            if followers_only or request.pending.done()
            else [request.pending]
        )
        if request.cache_key is not None and self._cache is not None:
            ended += self._cache.abort(request.cache_key)
        for pending in ended:
            pending._fail(error)
        if ended:
            self._recorder.record_ended(len(ended), failed)

    def _route_degraded(self, result) -> None:
        """Fire the degradation hook for one qualifier-flagged logical
        request (delivery is unaffected; hook errors are swallowed)."""
        if self.on_degraded is not None:
            try:
                self.on_degraded(result)
            except Exception:  # noqa: BLE001 -- supervisory
                pass

    def _publish_cached_result(self, request: _Request, result) -> None:
        """Store a leader's result and deliver it to its joined
        followers as the *same object* -- bitwise-identical delivery by
        construction."""
        if request.cache_key is None or self._cache is None:
            return
        followers, evicted = self._cache.publish(
            request.cache_key, result
        )
        if evicted:
            self._recorder.record_cache_evictions(evicted)
        for pending in followers:
            self._deliver(pending, result, cached=True)
