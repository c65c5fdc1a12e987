"""Trial records and streaming campaign aggregation.

Three levels:

* :class:`TrialRecord` -- one trial's observables, exactly what the
  JSONL artifacts store.  No wall-clock fields: a record is a pure
  function of ``(spec, cell, trial)``, which is what lets determinism
  tests compare artifact files byte-for-byte across worker counts.
* :class:`CellReport` -- per-grid-cell aggregates: outcome counts, a
  confusion matrix over ``(expected, observed)`` labels, and the
  detection coverage and SDC rate over the outcome counts.
* :class:`CampaignReport` -- the whole campaign: cell reports plus
  execution metadata (timing, workers, resume counts), with the same
  rates over the summed counts.  Timing is excluded from
  :meth:`~CampaignReport.fingerprint`, so reports from different
  worker counts fingerprint identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.faults.campaign import Outcome

#: Canonical outcome label order for tables and serialisation.
OUTCOME_ORDER: tuple[str, ...] = tuple(o.value for o in Outcome)


@dataclass(frozen=True, kw_only=True)
class TrialRecord:
    """One trial's classified observables.

    ``expected``/``observed`` are target-defined labels (a golden
    decision vs the decision taken, ``"exact"`` vs ``"deviant"`` for
    kernel values, ...); the cell confusion matrix counts their
    pairs.  ``metrics`` carries target-specific numeric payloads
    (e.g. executed-operation counts for segment-cost simulation).
    """

    cell: int
    trial: int
    outcome: str
    expected: str
    observed: str
    faults_fired: int = 0
    errors_detected: int = 0
    rollbacks: int = 0
    aborted: bool = False
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOME_ORDER:
            raise ValueError(
                f"unknown outcome {self.outcome!r}; "
                f"expected one of {OUTCOME_ORDER}"
            )

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.cell, self.trial)

    def to_dict(self) -> dict:
        return {
            "cell": self.cell,
            "trial": self.trial,
            "outcome": self.outcome,
            "expected": self.expected,
            "observed": self.observed,
            "faults_fired": self.faults_fired,
            "errors_detected": self.errors_detected,
            "rollbacks": self.rollbacks,
            "aborted": self.aborted,
            "metrics": {
                key: self.metrics[key] for key in sorted(self.metrics)
            },
        }

    def to_json(self) -> str:
        """Canonical single-line JSON (the JSONL artifact format)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: dict) -> TrialRecord:
        return cls(**data)

    @classmethod
    def from_json(cls, line: str) -> TrialRecord:
        return cls.from_dict(json.loads(line))


@dataclass
class CellReport:
    """Aggregates for one scenario cell."""

    index: int
    overrides: dict[str, Any] = field(default_factory=dict)
    trials: int = 0
    counts: dict[str, int] = field(
        default_factory=lambda: {label: 0 for label in OUTCOME_ORDER}
    )
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)
    faults_fired: int = 0
    errors_detected: int = 0
    rollbacks: int = 0
    metric_sums: dict[str, float] = field(default_factory=dict)

    def record(self, record: TrialRecord) -> None:
        self.trials += 1
        self.counts[record.outcome] += 1
        pair = (record.expected, record.observed)
        self.confusion[pair] = self.confusion.get(pair, 0) + 1
        self.faults_fired += record.faults_fired
        self.errors_detected += record.errors_detected
        self.rollbacks += record.rollbacks
        for key, value in record.metrics.items():
            self.metric_sums[key] = self.metric_sums.get(key, 0.0) + value

    # -- rates ------------------------------------------------------------
    @property
    def faulted(self) -> int:
        """Trials in which at least one fault fired."""
        return self.trials - self.counts[Outcome.CLEAN.value]

    @property
    def detection_coverage(self) -> float:
        """Fraction of faulted trials ending in a safe state: masked,
        detected-recovered or detected-aborted (1.0 when none
        faulted)."""
        if self.faulted == 0:
            return 1.0
        safe = (
            self.counts[Outcome.MASKED.value]
            + self.counts[Outcome.DETECTED_RECOVERED.value]
            + self.counts[Outcome.DETECTED_ABORTED.value]
        )
        return safe / self.faulted

    @property
    def silent_corruption_rate(self) -> float:
        """SDC trials per faulted trial (0.0 when none faulted)."""
        if self.faulted == 0:
            return 0.0
        return self.counts[Outcome.SILENT_CORRUPTION.value] / self.faulted

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "overrides": dict(sorted(self.overrides.items())),
            "trials": self.trials,
            "counts": {label: self.counts[label] for label in OUTCOME_ORDER},
            "confusion": [
                [expected, observed, count]
                for (expected, observed), count in sorted(
                    self.confusion.items()
                )
            ],
            "faults_fired": self.faults_fired,
            "errors_detected": self.errors_detected,
            "rollbacks": self.rollbacks,
            "metric_sums": {
                key: self.metric_sums[key]
                for key in sorted(self.metric_sums)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> CellReport:
        data = dict(data)
        data["confusion"] = {
            (expected, observed): count
            for expected, observed, count in data.get("confusion", [])
        }
        return cls(**data)


@dataclass
class CampaignReport:
    """Whole-campaign aggregates plus execution metadata.

    ``cells`` maps cell index to its :class:`CellReport`.  Execution
    metadata (``elapsed_seconds``, ``workers``, ``resumed_shards``)
    describes *this run* and is excluded from :meth:`fingerprint`,
    which digests only the experiment's deterministic content.
    """

    spec_name: str
    spec_hash: str
    target: str
    total_trials_expected: int
    cells: dict[int, CellReport] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    workers: int = 1
    resumed_shards: int = 0
    #: Per-trial records sorted by ``(cell, trial)``; populated only
    #: when the engine runs with ``keep_records=True``.  Not part of
    #: the serialised report (the JSONL artifacts are the record
    #: store).
    records: list[TrialRecord] | None = None

    # -- aggregate views --------------------------------------------------
    @property
    def trials(self) -> int:
        return sum(cell.trials for cell in self.cells.values())

    @property
    def complete(self) -> bool:
        return self.trials == self.total_trials_expected

    @property
    def counts(self) -> dict[str, int]:
        total = {label: 0 for label in OUTCOME_ORDER}
        for cell in self.cells.values():
            for label, count in cell.counts.items():
                total[label] += count
        return total

    @property
    def detection_coverage(self) -> float:
        """:attr:`CellReport.detection_coverage` over the summed
        counts."""
        return self._summed().detection_coverage

    @property
    def silent_corruption_rate(self) -> float:
        """:attr:`CellReport.silent_corruption_rate` over the summed
        counts."""
        return self._summed().silent_corruption_rate

    def _summed(self) -> CellReport:
        return CellReport(index=-1, trials=self.trials, counts=self.counts)

    def cell(self, index: int) -> CellReport:
        return self.cells[index]

    # -- serialisation ----------------------------------------------------
    def deterministic_dict(self) -> dict:
        """The worker-count-invariant portion of the report."""
        return {
            "spec_name": self.spec_name,
            "spec_hash": self.spec_hash,
            "target": self.target,
            "total_trials_expected": self.total_trials_expected,
            "cells": [
                self.cells[index].to_dict()
                for index in sorted(self.cells)
            ],
        }

    def fingerprint(self) -> str:
        """Digest of :meth:`deterministic_dict`.

        Identical for any worker count, shard size or resume path
        that executed the same spec -- the determinism tests and the
        scaling benchmark assert exactly this.
        """
        canonical = json.dumps(
            self.deterministic_dict(),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_dict(self) -> dict:
        data = self.deterministic_dict()
        data["elapsed_seconds"] = self.elapsed_seconds
        data["workers"] = self.workers
        data["resumed_shards"] = self.resumed_shards
        return data

    @classmethod
    def from_dict(cls, data: dict) -> CampaignReport:
        data = dict(data)
        cells = {
            cell["index"]: CellReport.from_dict(cell)
            for cell in data.pop("cells", [])
        }
        return cls(cells=cells, **data)

    def to_text(self) -> str:
        """Per-cell outcome table plus headline rates."""
        lines = [
            f"campaign {self.spec_name!r} target={self.target} "
            f"trials={self.trials}/{self.total_trials_expected} "
            f"workers={self.workers} "
            f"elapsed={self.elapsed_seconds:.2f}s",
        ]
        header = "cell  " + " ".join(
            f"{label[:12]:>12}" for label in OUTCOME_ORDER
        ) + f" {'coverage':>9} {'sdc':>7}  overrides"
        lines.append(header)
        for index in sorted(self.cells):
            cell = self.cells[index]
            row = f"{index:>4}  " + " ".join(
                f"{cell.counts[label]:>12}" for label in OUTCOME_ORDER
            )
            row += (
                f" {cell.detection_coverage:>9.3f} "
                f"{cell.silent_corruption_rate:>7.3f}  "
            )
            row += ", ".join(
                f"{axis}={value}"
                for axis, value in sorted(cell.overrides.items())
            ) or "-"
            lines.append(row)
        lines.append(
            f"overall coverage={self.detection_coverage:.3f} "
            f"sdc={self.silent_corruption_rate:.3f} "
            f"fingerprint={self.fingerprint()[:12]}"
        )
        return "\n".join(lines)
