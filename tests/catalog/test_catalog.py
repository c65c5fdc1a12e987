"""Catalog store + CLI behaviour: ingest idempotence, validation,
kind sniffing, queries, and agreement with the producer-side timing
schema.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.timing_schema import (
    ARTIFACT_DIR_ENV,
    validate_timing_payload,
    write_timing_artifact,
)
from repro.catalog import (
    CatalogError,
    CatalogStore,
    classify_payload,
    content_hash_of,
)
from repro.catalog.cli import main as catalog_main


def timing_payload(**overrides) -> dict:
    payload = {
        "bench": "demo_bench",
        "batch": 64,
        "serial_seconds": 1.25,
        "served_seconds": 0.25,
        "speedup_vs_serial": 5.0,
        "min_speedup_vs_serial_asserted": 3.0,
    }
    payload.update(overrides)
    return payload


def campaign_payload(**overrides) -> dict:
    payload = {
        "spec_name": "demo-campaign",
        "spec_hash": "a" * 64,
        "target": "qualifier",
        "total_trials_expected": 20,
        "cells": [
            {"index": 0, "trials": 10, "counts": {}},
            {"index": 1, "trials": 10, "counts": {}},
        ],
        "elapsed_seconds": 3.5,
        "workers": 2,
        "resumed_shards": 0,
    }
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# Store semantics
# ---------------------------------------------------------------------------


def test_ingest_is_idempotent_and_content_addressed():
    with CatalogStore() as store:
        id_a, created_a = store.ingest(timing_payload(), name="one")
        id_b, created_b = store.ingest(timing_payload(), name="two")
        assert created_a and not created_b
        assert id_a == id_b  # same content, same row, name ignored
        assert len(store) == 1

        changed = timing_payload(speedup_vs_serial=6.0)
        id_c, created_c = store.ingest(changed, name="one")
        assert created_c and id_c != id_a
        assert len(store) == 2


def test_kind_sniffing_and_rejection():
    assert classify_payload(timing_payload()) == "timing"
    assert classify_payload(campaign_payload()) == "campaign"
    with pytest.raises(CatalogError, match="neither"):
        classify_payload({"hello": "world"})
    with CatalogStore() as store:
        with pytest.raises(CatalogError, match="neither"):
            store.ingest({"hello": "world"}, name="junk")


def test_invalid_artifacts_rejected_with_reasons():
    with CatalogStore() as store:
        with pytest.raises(CatalogError, match="positive finite"):
            store.ingest(
                timing_payload(serial_seconds=-1.0), name="bad"
            )
        with pytest.raises(CatalogError, match="speedup"):
            bad = timing_payload()
            del bad["speedup_vs_serial"]
            store.ingest(bad, name="bad")
        with pytest.raises(CatalogError, match="spec_name"):
            store.ingest(campaign_payload(spec_name=""), name="bad")
        assert len(store) == 0  # nothing malformed was filed


def test_validation_agrees_with_producer_schema():
    """The catalog's consumer-side mirror and the benches' producer
    schema accept and reject the same timing payloads."""
    cases = [
        timing_payload(),
        timing_payload(batch="64"),
        timing_payload(serial_seconds=float("inf")),
        timing_payload(bench=""),
        {"bench": "x", "batch": 1, "only_seconds": 1.0},
        timing_payload(min_x_asserted=-2.0),
    ]
    with CatalogStore() as store:
        for case in cases:
            producer_ok = not validate_timing_payload(case)
            try:
                store.ingest(dict(case), name="case")
                consumer_ok = True
            except CatalogError:
                consumer_ok = False
            assert producer_ok == consumer_ok, case


def test_metrics_and_trend_queries():
    with CatalogStore() as store:
        store.ingest(timing_payload(), name="t1")
        store.ingest(
            timing_payload(
                bench="other", speedup_vs_serial=2.0, speedup=4.0
            ),
            name="t2",
        )
        store.ingest(campaign_payload(), name="c1")

        record = store.get("t1")
        metrics = store.metrics_for(record.id)
        assert metrics["speedup_vs_serial"] == 5.0
        assert metrics["serial_seconds"] == 1.25

        campaign = store.get("c1")
        assert campaign.kind == "campaign"
        assert store.metrics_for(campaign.id)["trials"] == 20.0

        rows = store.trend()  # default family: speedup + speedup_vs_*
        values = {(name, key): v for name, _b, _batch, key, v in rows}
        assert values[("t1", "speedup_vs_serial")] == 5.0
        assert values[("t2", "speedup_vs_serial")] == 2.0
        assert values[("t2", "speedup")] == 4.0
        assert len(rows) == 3  # campaigns contribute no speedups

        only = store.trend(bench="other")
        assert {row[0] for row in only} == {"t2"}


def test_get_by_id_name_and_hash_prefix():
    with CatalogStore() as store:
        artifact_id, _ = store.ingest(timing_payload(), name="t1")
        digest = content_hash_of(timing_payload())
        assert store.get(artifact_id).name == "t1"
        assert store.get("t1").id == artifact_id
        assert store.get(digest[:12]).id == artifact_id
        with pytest.raises(KeyError):
            store.get("no-such-artifact")


def test_durability_roundtrip(tmp_path):
    db = tmp_path / "catalog.sqlite"
    with CatalogStore(db) as store:
        store.ingest(timing_payload(), name="t1")
    with CatalogStore(db) as store:
        assert len(store) == 1
        assert store.get("t1").payload["speedup_vs_serial"] == 5.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_ingest_list_show_trend_roundtrip(tmp_path, capsys):
    artifact = tmp_path / "demo_bench_timing.json"
    artifact.write_text(json.dumps(timing_payload()))
    db = str(tmp_path / "catalog.sqlite")

    assert catalog_main(["--db", db, "ingest", str(tmp_path)]) == 0
    assert "1 new" in capsys.readouterr().out

    # Idempotent: the second ingest files nothing.
    assert catalog_main(["--db", db, "ingest", str(artifact)]) == 0
    assert "0 new, 1 unchanged" in capsys.readouterr().out

    assert catalog_main(["--db", db, "--json", "list"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [a["name"] for a in listing["artifacts"]] == [
        "demo_bench_timing"
    ]

    assert catalog_main(
        ["--db", db, "--json", "show", "demo_bench_timing"]
    ) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["payload"]["speedup_vs_serial"] == 5.0
    assert shown["metrics"]["speedup_vs_serial"] == 5.0

    assert catalog_main(["--db", db, "--json", "trend"]) == 0
    trend = json.loads(capsys.readouterr().out)
    assert trend["rows"] == [{
        "name": "demo_bench_timing",
        "bench": "demo_bench",
        "batch": 64,
        "key": "speedup_vs_serial",
        "value": 5.0,
    }]


def test_cli_reports_invalid_files_without_dying(tmp_path, capsys):
    good = tmp_path / "good_timing.json"
    good.write_text(json.dumps(timing_payload()))
    bad = tmp_path / "bad_timing.json"
    bad.write_text(json.dumps({"bench": "x"}))
    db = str(tmp_path / "catalog.sqlite")

    # Non-strict: the good file lands, the bad one is reported and
    # the exit code is nonzero so CI notices.
    assert catalog_main(["--db", db, "ingest", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 new" in out and "1 failed" in out

    assert catalog_main(["--db", db, "--json", "list"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing["artifacts"]) == 1


def test_cli_trend_reproduces_shipped_artifacts(
    tmp_path, capsys, monkeypatch
):
    """The acceptance loop on bench-shaped artifacts: every timing JSON
    the benches write through ``benchmarks/timing_schema.py`` must have
    its speedup columns come back, value-exact, from ``catalog.py
    trend``.  The artifacts are written here, into ``tmp_path``, so
    the test holds on a fresh clone (the bench output directory is
    not committed)."""
    artifacts = tmp_path / "artifacts"
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(artifacts))
    shipped = [
        write_timing_artifact("reliable_vectorized_timing.json", {
            "bench": "reliable_vectorized",
            "batch": 1,
            "scalar_seconds": 2.5,
            "vectorized_seconds": 0.0125,
            "speedup": 200.0,
            "min_speedup_asserted": 20.0,
        }),
        write_timing_artifact("integrated_serving_throughput_timing.json", {
            "bench": "integrated_serving_throughput",
            "batch": 64,
            "serial_seconds": 3.2,
            "served_seconds": 1.0,
            "speedup_vs_serial": 3.2,
            "min_speedup_vs_serial_asserted": 2.0,
        }),
        write_timing_artifact("qualifier_throughput_timing.json", {
            "bench": "qualifier_throughput",
            "batch": 64,
            "seed_loop_seconds": 0.99,
            "scalar_loop_seconds": 0.2,
            "batched_seconds": 0.1,
            "speedup_vs_seed": 9.9,
            "speedup_vs_scalar": 2.0,
        }),
    ]
    db = str(tmp_path / "catalog.sqlite")
    assert catalog_main(["--db", db, "ingest", str(artifacts)]) == 0
    capsys.readouterr()
    assert catalog_main(["--db", db, "--json", "trend"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    catalogued = {
        (row["name"], row["key"]): row["value"] for row in rows
    }
    for path in shipped:
        payload = json.loads(path.read_text())
        for key, value in payload.items():
            if key == "speedup" or key.startswith("speedup_vs_"):
                assert catalogued[(path.stem, key)] == value, (
                    f"{path.stem}.{key} not reproduced from catalog"
                )
