"""The sharded campaign executor.

:func:`run_campaign` turns a :class:`~repro.campaigns.spec.CampaignSpec`
into a :class:`~repro.campaigns.report.CampaignReport`:

1. the trial space (``cells x trials``) is cut into deterministic
   :class:`Shard`\\ s of ``spec.shard_size`` trials;
2. shards already present in the artifact store are loaded, the rest
   execute -- serially, or on a ``multiprocessing`` pool when
   ``workers > 1`` -- with completed shards streamed into the store
   and the progress callback as they finish;
3. per-shard records merge into the report **in shard-index order**,
   so floating-point metric sums (and everything else) are bitwise
   identical whatever the worker count or completion order.

Each trial draws its random stream from
``(spec.seed, cell, trial)`` alone (:mod:`repro.campaigns.seeding`),
which is what makes step 3's guarantee possible: a shard's records do
not depend on which worker ran it or what ran before it.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.api.registry import CAMPAIGN_TARGETS
from repro.campaigns.artifacts import CampaignStore
from repro.campaigns.report import CampaignReport, CellReport, TrialRecord
from repro.campaigns.seeding import trial_rng
from repro.campaigns.spec import CampaignSpec

# Importing the targets module seeds CAMPAIGN_TARGETS with the
# built-in runners; TrialContext is the per-trial handle they consume.
from repro.campaigns.targets import TrialContext


@dataclass(frozen=True)
class Shard:
    """A contiguous run of trials within one grid cell."""

    index: int
    cell: int
    start: int
    count: int

    def to_tuple(self) -> tuple[int, int, int, int]:
        return (self.index, self.cell, self.start, self.count)


def iter_shards(spec: CampaignSpec) -> list[Shard]:
    """Deterministic shard enumeration: cell-major, then trial range."""
    shards = []
    index = 0
    for cell in range(spec.n_cells):
        for start in range(0, spec.trials, spec.shard_size):
            count = min(spec.shard_size, spec.trials - start)
            shards.append(
                Shard(index=index, cell=cell, start=start, count=count)
            )
            index += 1
    return shards


def run_shard(spec: CampaignSpec, shard: Shard) -> list[TrialRecord]:
    """Execute one shard's trials in order."""
    runner = CAMPAIGN_TARGETS.get(spec.target)
    cell = spec.cells()[shard.cell]
    records = []
    for trial in range(shard.start, shard.start + shard.count):
        ctx = TrialContext(
            spec=spec,
            cell=cell,
            trial=trial,
            rng=trial_rng(spec.seed, cell.index, trial),
        )
        records.append(runner(ctx))
    return records


# -- worker-side state (multiprocessing) ------------------------------------

_WORKER_SPEC: CampaignSpec | None = None


def _worker_init(spec_dict: dict) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = CampaignSpec.from_dict(spec_dict)


def _worker_run(
    shard_tuple: tuple[int, int, int, int],
) -> tuple[int, list[dict]]:
    shard = Shard(*shard_tuple)
    records = run_shard(_WORKER_SPEC, shard)
    return shard.index, [record.to_dict() for record in records]


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the parent's imported modules and warm caches;
    # spawn is the portable fallback.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def default_workers() -> int:
    """Worker count matched to the usable cores of this machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int | None = None,
    artifacts_dir: str | os.PathLike | None = None,
    overwrite: bool = False,
    shard_limit: int | None = None,
    keep_records: bool = False,
    on_shard: Callable[[Shard, int, int], None] | None = None,
) -> CampaignReport:
    """Run (or resume) a campaign.

    Parameters
    ----------
    spec:
        The declarative campaign description.
    workers:
        ``None`` or ``1`` -- serial in-process execution; ``n > 1`` --
        a ``multiprocessing`` pool of ``n`` processes.  Results are
        bitwise identical either way.
    artifacts_dir:
        When given, completed shards persist as JSONL under this
        directory and a re-run of the same spec resumes, executing
        only the missing shards.  A directory holding a *different*
        spec raises :class:`~repro.campaigns.artifacts.
        SpecMismatchError` unless ``overwrite=True``.
    shard_limit:
        Execute at most this many *new* shards this call (budgeted /
        incremental runs; the returned report has
        ``complete == False`` until all shards exist).
    keep_records:
        Attach every :class:`TrialRecord`, sorted by
        ``(cell, trial)``, to the returned report as ``.records`` --
        for adapters that need per-trial detail.
    on_shard:
        Progress callback ``(shard, n_done, n_total)`` invoked as
        each shard completes (worker order, not shard order).
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    n_workers = 1 if workers is None else workers

    start_time = time.perf_counter()
    shards = iter_shards(spec)
    store: CampaignStore | None = None
    shard_records: dict[int, list[TrialRecord]] = {}
    resumed = 0
    if artifacts_dir is not None:
        store = CampaignStore(artifacts_dir, spec)
        store.prepare(overwrite=overwrite)
        for index in store.completed_shards():
            if index < len(shards):
                shard_records[index] = store.load_shard(index)
        resumed = len(shard_records)

    pending = [s for s in shards if s.index not in shard_records]
    if shard_limit is not None:
        if shard_limit < 0:
            raise ValueError("shard_limit must be >= 0")
        pending = pending[:shard_limit]

    n_total = len(shards)

    def finish_shard(shard: Shard, records: list[TrialRecord]) -> None:
        shard_records[shard.index] = records
        if store is not None:
            store.write_shard(shard.index, records)
        if on_shard is not None:
            on_shard(shard, len(shard_records), n_total)

    if n_workers > 1 and pending:
        ctx = _pool_context()
        by_index = {shard.index: shard for shard in pending}
        with ctx.Pool(
            processes=n_workers,
            initializer=_worker_init,
            initargs=(spec.to_dict(),),
        ) as pool:
            results = pool.imap_unordered(
                _worker_run, [s.to_tuple() for s in pending]
            )
            for index, record_dicts in results:
                finish_shard(
                    by_index[index],
                    [TrialRecord.from_dict(d) for d in record_dicts],
                )
    else:
        for shard in pending:
            finish_shard(shard, run_shard(spec, shard))

    # Deterministic aggregation: shards merge in index order, records
    # within a shard are already in trial order.
    cells = {
        cell.index: CellReport(index=cell.index, overrides=cell.overrides)
        for cell in spec.cells()
    }
    for index in sorted(shard_records):
        for record in shard_records[index]:
            cells[record.cell].record(record)
    report = CampaignReport(
        spec_name=spec.name,
        spec_hash=spec.content_hash(),
        target=spec.target,
        total_trials_expected=spec.total_trials,
        cells=cells,
        elapsed_seconds=time.perf_counter() - start_time,
        workers=n_workers,
        resumed_shards=resumed,
    )
    if keep_records:
        records = [
            record
            for index in sorted(shard_records)
            for record in shard_records[index]
        ]
        report.records = sorted(records, key=lambda r: r.sort_key)
    if store is not None and report.complete:
        store.write_report(report)
    return report
