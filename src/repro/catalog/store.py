"""SQLite-backed catalog of performance and campaign artifacts.

The repo's benches write schema-validated timing JSONs
(:mod:`repro.catalog.schema`) and the fault-injection engine
writes campaign reports (``repro.campaigns.artifacts.CampaignStore``);
the chaos layer writes campaign summaries of serving-invariant runs
(``repro.chaos.campaign.chaos_summary``).  All are flat files that CI
uploads and humans eyeball; none is *queryable* -- "how did the
serving speedup move over the last five PRs?" means opening five JSON
files by hand.  :class:`CatalogStore`
closes that gap: it ingests every artifact kind into one SQLite file
with their numeric metrics exploded into an indexed table, so perf
trajectories become one SQL (or ``scripts/catalog.py trend``) query.

Design rules
------------

* **Content-addressed and idempotent.**  Every artifact is keyed by
  the sha256 of its canonical JSON (``sort_keys``, compact
  separators) -- the same content-hash idiom as
  :meth:`repro.campaigns.spec.CampaignSpec.content_hash`.  Ingesting
  the same payload twice is a no-op, so re-running a bench or a CI
  job never duplicates rows, and two catalogs fed the same artifacts
  hold identical content.
* **Deterministic.**  The store records nothing ambient -- no
  timestamps, no hostnames, no RNG.  Catalog content is a pure
  function of the ingested payloads, which is what lets tests assert
  against it bit-for-bit.
* **Validating consumer.**  Timing payloads are re-validated at
  ingest by the same :func:`~repro.catalog.schema.
  validate_timing_payload` the benches' writer runs.  A malformed
  file is rejected with the violation list rather than silently
  catalogued -- the catalog trusts its own gate, not the producer's.

Only the standard library is used (``sqlite3``, ``json``,
``hashlib``).
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
from dataclasses import dataclass
from pathlib import Path

from repro.catalog.schema import validate_timing_payload

__all__ = [
    "ArtifactRecord",
    "CatalogError",
    "CatalogStore",
    "classify_payload",
    "content_hash_of",
]

#: Bumped on any change to the table layout; ingest refuses a DB
#: written by a different layout rather than corrupting it.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    id           INTEGER PRIMARY KEY,
    kind         TEXT NOT NULL,
    name         TEXT NOT NULL,
    bench        TEXT,
    batch        INTEGER,
    content_hash TEXT NOT NULL UNIQUE,
    source       TEXT NOT NULL,
    payload      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics (
    artifact_id INTEGER NOT NULL
        REFERENCES artifacts(id) ON DELETE CASCADE,
    key         TEXT NOT NULL,
    value       REAL NOT NULL,
    PRIMARY KEY (artifact_id, key)
);
CREATE INDEX IF NOT EXISTS metrics_by_key ON metrics(key);
"""


class CatalogError(ValueError):
    """Malformed artifact, unknown kind, or incompatible catalog DB."""


@dataclass(frozen=True)
class ArtifactRecord:
    """One catalogued artifact (payload parsed back from JSON)."""

    id: int
    kind: str
    name: str
    bench: str | None
    batch: int | None
    content_hash: str
    source: str
    payload: dict


def content_hash_of(payload: dict) -> str:
    """sha256 of the canonical JSON rendering of ``payload`` -- the
    campaign-spec content-hash idiom, applied to artifacts."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _validate_campaign(payload: dict) -> list[str]:
    """Structural checks for a ``CampaignReport.to_dict`` payload."""
    errors: list[str] = []
    for key in ("spec_name", "spec_hash", "target"):
        if not isinstance(payload.get(key), str) or not payload.get(key):
            errors.append(f"{key!r} must be a non-empty string")
    expected = payload.get("total_trials_expected")
    if not isinstance(expected, int) or isinstance(expected, bool):
        errors.append("'total_trials_expected' must be an int")
    if not isinstance(payload.get("cells"), list):
        errors.append("'cells' must be a list of cell reports")
    return errors


def _validate_chaos(payload: dict) -> list[str]:
    """Structural checks for a ``chaos_summary`` payload."""
    errors: list[str] = []
    for key in ("chaos_campaign", "target", "spec_hash", "fingerprint"):
        if not isinstance(payload.get(key), str) or not payload.get(key):
            errors.append(f"{key!r} must be a non-empty string")
    for key in ("trials", "invariants_held_trials"):
        value = payload.get(key)
        if (
            not isinstance(value, int)
            or isinstance(value, bool)
            or value < 0
        ):
            errors.append(f"{key!r} must be a non-negative int")
    outcomes = payload.get("outcomes")
    if not isinstance(outcomes, dict):
        errors.append("'outcomes' must be a dict of outcome counts")
    else:
        for label, count in outcomes.items():
            if (
                not isinstance(count, int)
                or isinstance(count, bool)
                or count < 0
            ):
                errors.append(
                    f"outcome {label!r} must be a non-negative int, "
                    f"got {count!r}"
                )
    return errors


def classify_payload(payload: dict) -> str:
    """``"timing"``, ``"campaign"`` or ``"chaos"``, by structural
    sniffing.

    A timing artifact has a ``bench`` name and wall-time keys; a
    campaign report has a ``spec_hash`` and per-cell results; a chaos
    summary has a ``chaos_campaign`` name and an ``outcomes`` table
    (checked first -- it also carries a ``spec_hash``).  A payload
    that is none of these raises :class:`CatalogError` (the catalog
    never files something it cannot validate).
    """
    if "chaos_campaign" in payload and "outcomes" in payload:
        return "chaos"
    if "bench" in payload and any(
        key.endswith("_seconds") for key in payload
    ):
        return "timing"
    if "spec_hash" in payload and "cells" in payload:
        return "campaign"
    raise CatalogError(
        "payload is neither a timing artifact (bench + *_seconds), a "
        "campaign report (spec_hash + cells), nor a chaos summary "
        "(chaos_campaign + outcomes)"
    )


def _numeric_metrics(payload: dict) -> dict[str, float]:
    """Every top-level numeric field, exploded for the metrics table."""
    metrics: dict[str, float] = {}
    for key, value in payload.items():
        if (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(float(value))
        ):
            metrics[key] = float(value)
    return metrics


def _campaign_metrics(payload: dict) -> dict[str, float]:
    metrics = _numeric_metrics(payload)
    cells = payload.get("cells", [])
    trials = sum(
        cell.get("trials", 0)
        for cell in cells
        if isinstance(cell, dict)
    )
    metrics["trials"] = float(trials)
    metrics["cells"] = float(len(cells))
    return metrics


def _chaos_metrics(payload: dict) -> dict[str, float]:
    """Top-level numerics plus the outcome table exploded as
    ``outcome_<label>`` -- so silent-corruption counts are one
    ``scripts/catalog.py trend`` query away."""
    metrics = _numeric_metrics(payload)
    for label, count in payload.get("outcomes", {}).items():
        metrics[f"outcome_{label}"] = float(count)
    return metrics


class CatalogStore:
    """The durable artifact catalog (one SQLite file).

    Open with a filesystem path (created on first use) or
    ``":memory:"`` for tests.  Use as a context manager, or call
    :meth:`close` explicitly.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)
        self._check_schema_version()

    def _check_schema_version(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            with self._conn:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
        elif row[0] != str(SCHEMA_VERSION):
            raise CatalogError(
                f"catalog {self.path} has schema version {row[0]}, "
                f"this build expects {SCHEMA_VERSION}"
            )

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> CatalogStore:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- ingest -----------------------------------------------------------
    def ingest(
        self, payload: dict, name: str, source: str = ""
    ) -> tuple[int, bool]:
        """File one artifact payload under ``name``.

        The kind is sniffed (:func:`classify_payload`), the payload
        validated for that kind, and the row keyed by content hash.
        Returns ``(artifact_id, created)`` -- ``created`` is False
        when an identical payload was already catalogued (idempotent
        re-ingest; the existing row wins, including its name).
        """
        kind = classify_payload(payload)
        validators = {
            "timing": validate_timing_payload,
            "campaign": _validate_campaign,
            "chaos": _validate_chaos,
        }
        errors = validators[kind](payload)
        if errors:
            raise CatalogError(
                f"invalid {kind} artifact {name!r}:\n- "
                + "\n- ".join(errors)
            )
        digest = content_hash_of(payload)
        existing = self._conn.execute(
            "SELECT id FROM artifacts WHERE content_hash = ?", (digest,)
        ).fetchone()
        if existing is not None:
            return existing[0], False
        if kind == "timing":
            bench = payload["bench"]
            batch = payload["batch"]
            metrics = _numeric_metrics(payload)
        elif kind == "chaos":
            bench = payload["chaos_campaign"]
            batch = None
            metrics = _chaos_metrics(payload)
        else:
            bench = payload["spec_name"]
            batch = None
            metrics = _campaign_metrics(payload)
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO artifacts "
                "(kind, name, bench, batch, content_hash, source, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    kind,
                    name,
                    bench,
                    batch,
                    digest,
                    source,
                    json.dumps(
                        payload, sort_keys=True, separators=(",", ":")
                    ),
                ),
            )
            artifact_id = cursor.lastrowid
            self._conn.executemany(
                "INSERT INTO metrics (artifact_id, key, value) "
                "VALUES (?, ?, ?)",
                [
                    (artifact_id, key, value)
                    for key, value in sorted(metrics.items())
                ],
            )
        return artifact_id, True

    def ingest_file(self, path: str | Path) -> tuple[int, bool]:
        """Ingest one JSON file; the stem becomes the artifact name
        and the path its source."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise CatalogError(f"cannot read {path}: {error}") from error
        if not isinstance(payload, dict):
            raise CatalogError(f"{path}: top-level JSON must be an object")
        return self.ingest(payload, name=path.stem, source=str(path))

    # -- queries ----------------------------------------------------------
    def _record(self, row) -> ArtifactRecord:
        return ArtifactRecord(
            id=row[0],
            kind=row[1],
            name=row[2],
            bench=row[3],
            batch=row[4],
            content_hash=row[5],
            source=row[6],
            payload=json.loads(row[7]),
        )

    _SELECT = (
        "SELECT id, kind, name, bench, batch, content_hash, source, "
        "payload FROM artifacts"
    )

    def artifacts(self, kind: str | None = None) -> list[ArtifactRecord]:
        """All artifacts (optionally one kind), in ingest order."""
        if kind is None:
            rows = self._conn.execute(
                f"{self._SELECT} ORDER BY id"
            ).fetchall()
        else:
            rows = self._conn.execute(
                f"{self._SELECT} WHERE kind = ? ORDER BY id", (kind,)
            ).fetchall()
        return [self._record(row) for row in rows]

    def get(self, ref: str | int) -> ArtifactRecord:
        """One artifact by id, name, or content-hash prefix.

        A name shared by several artifacts resolves to the most
        recently ingested one (names are labels; hashes are
        identities).
        """
        if isinstance(ref, int) or (
            isinstance(ref, str) and ref.isdigit()
        ):
            row = self._conn.execute(
                f"{self._SELECT} WHERE id = ?", (int(ref),)
            ).fetchone()
        else:
            row = self._conn.execute(
                f"{self._SELECT} WHERE name = ? ORDER BY id DESC "
                "LIMIT 1",
                (ref,),
            ).fetchone()
            if row is None and len(ref) >= 8:
                row = self._conn.execute(
                    f"{self._SELECT} WHERE content_hash LIKE ? "
                    "ORDER BY id DESC LIMIT 1",
                    (ref + "%",),
                ).fetchone()
        if row is None:
            raise KeyError(f"no catalogued artifact matches {ref!r}")
        return self._record(row)

    def metrics_for(self, artifact_id: int) -> dict[str, float]:
        rows = self._conn.execute(
            "SELECT key, value FROM metrics WHERE artifact_id = ? "
            "ORDER BY key",
            (artifact_id,),
        ).fetchall()
        return dict(rows)

    def trend(
        self, metric: str = "speedup", bench: str | None = None
    ) -> list[tuple]:
        """Metric trajectory rows: ``(name, bench, batch, key, value)``.

        ``metric`` matches exactly *or* as a family prefix --
        ``"speedup"`` (the default) returns both ``speedup`` and every
        ``speedup_vs_*`` column, which is how ``scripts/catalog.py
        trend`` reproduces each shipped timing artifact's speedup
        columns from the DB.
        """
        query = (
            "SELECT a.name, a.bench, a.batch, m.key, m.value "
            "FROM metrics m JOIN artifacts a ON a.id = m.artifact_id "
            "WHERE (m.key = ? OR m.key LIKE ?)"
        )
        params: list = [metric, metric + "_vs_%"]
        if bench is not None:
            query += " AND a.bench = ?"
            params.append(bench)
        query += " ORDER BY a.id, m.key"
        return self._conn.execute(query, params).fetchall()

    def __len__(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM artifacts"
        ).fetchone()
        return int(row[0])
