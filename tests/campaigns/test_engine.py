"""Engine behaviour: targets, records, artifacts, error paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CAMPAIGN_TARGETS
from repro.campaigns import (
    CampaignSpec,
    CampaignStore,
    FaultSpec,
    SpecMismatchError,
    TrialRecord,
    run_campaign,
)
from repro.faults.campaign import Outcome


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="engine-test",
        target="reliable_conv",
        fault=FaultSpec(kind="transient", params={"probability": 0.02}),
        trials=30,
        seed=5,
        shard_size=8,
        target_params={"vector_length": 8, "operator_kind": "dmr"},
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestRegistry:
    def test_builtin_targets_registered(self):
        for name in (
            "reliable_conv", "baseline", "pipeline", "checkpoint_segment"
        ):
            assert name in CAMPAIGN_TARGETS

    def test_unknown_target_fails_with_listing(self):
        spec = small_spec(target="warp_core")
        with pytest.raises(KeyError, match="reliable_conv"):
            run_campaign(spec)


class TestSerialRun:
    def test_counts_and_rates(self):
        report = run_campaign(small_spec())
        assert report.complete and report.trials == 30
        assert sum(report.counts.values()) == 30
        # DMR detects-and-recovers transients: no silent corruption.
        assert report.counts[Outcome.SILENT_CORRUPTION.value] == 0
        assert report.detection_coverage == 1.0

    def test_baseline_target_has_no_detection(self):
        report = run_campaign(
            small_spec(
                target="baseline",
                fault=FaultSpec(
                    kind="transient", params={"probability": 0.05}
                ),
                target_params={"vector_length": 8},
            )
        )
        counts = report.counts
        assert counts[Outcome.DETECTED_RECOVERED.value] == 0
        assert counts[Outcome.DETECTED_ABORTED.value] == 0
        assert counts[Outcome.SILENT_CORRUPTION.value] > 0

    def test_permanent_fault_defeats_dmr(self):
        report = run_campaign(
            small_spec(
                fault=FaultSpec(kind="permanent", params={"bit": 28}),
                trials=10,
            )
        )
        assert (
            report.counts[Outcome.SILENT_CORRUPTION.value] == 10
        )

    def test_keep_records_sorted(self):
        report = run_campaign(
            small_spec(grid={"operator_kind": ("plain", "dmr")}),
            keep_records=True,
        )
        keys = [r.sort_key for r in report.records]
        assert keys == sorted(keys)
        assert len(report.records) == 60

    def test_confusion_matrix_accumulates(self):
        report = run_campaign(small_spec())
        cell = report.cell(0)
        assert sum(cell.confusion.values()) == cell.trials
        for (expected, observed) in cell.confusion:
            assert expected == "exact"
            assert observed in ("exact", "deviant", "abort")

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            run_campaign(small_spec(), workers=0)


class TestArtifacts:
    def test_partial_then_resume(self, tmp_path):
        spec = small_spec()
        partial = run_campaign(
            spec, artifacts_dir=tmp_path, shard_limit=2
        )
        assert not partial.complete
        assert partial.trials == 16
        resumed = run_campaign(spec, artifacts_dir=tmp_path)
        assert resumed.complete
        assert resumed.resumed_shards == 2
        fresh = run_campaign(spec)
        assert resumed.fingerprint() == fresh.fingerprint()

    def test_completed_run_is_all_cache(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, artifacts_dir=tmp_path)
        again = run_campaign(spec, artifacts_dir=tmp_path)
        assert again.complete
        assert again.resumed_shards == 4  # ceil(30 / 8)

    def test_spec_mismatch_refused_then_overwritten(self, tmp_path):
        run_campaign(small_spec(), artifacts_dir=tmp_path)
        other = small_spec(seed=99)
        with pytest.raises(SpecMismatchError):
            run_campaign(other, artifacts_dir=tmp_path)
        report = run_campaign(
            other, artifacts_dir=tmp_path, overwrite=True
        )
        assert report.complete and report.resumed_shards == 0

    def test_orphaned_shards_without_manifest_refused(self, tmp_path):
        """Shard files whose spec.json is gone have unknowable
        provenance; adopting them would merge foreign trials."""
        spec = small_spec()
        run_campaign(spec, artifacts_dir=tmp_path)
        (tmp_path / "spec.json").unlink()
        with pytest.raises(SpecMismatchError, match="no ?spec.json"):
            run_campaign(spec, artifacts_dir=tmp_path)
        report = run_campaign(
            spec, artifacts_dir=tmp_path, overwrite=True
        )
        assert report.complete and report.resumed_shards == 0

    def test_jsonl_roundtrip(self, tmp_path):
        spec = small_spec(trials=9, shard_size=4)
        run_campaign(spec, artifacts_dir=tmp_path)
        store = CampaignStore(tmp_path, spec)
        records = store.all_records()
        assert len(records) == 9
        assert all(isinstance(r, TrialRecord) for r in records)
        line = records[0].to_json()
        assert TrialRecord.from_json(line) == records[0]

    def test_report_json_written_on_completion(self, tmp_path):
        spec = small_spec(trials=8, shard_size=8)
        report = run_campaign(spec, artifacts_dir=tmp_path)
        loaded = CampaignStore(tmp_path, spec).load_report()
        assert loaded.fingerprint() == report.fingerprint()


class TestReportSerialisation:
    def test_report_roundtrip(self):
        from repro.campaigns import CampaignReport

        report = run_campaign(
            small_spec(grid={"operator_kind": ("plain", "dmr")})
        )
        clone = CampaignReport.from_dict(report.to_dict())
        assert clone.fingerprint() == report.fingerprint()
        assert clone.counts == report.counts

    def test_to_text_mentions_cells_and_fingerprint(self):
        report = run_campaign(small_spec())
        text = report.to_text()
        assert "fingerprint" in text
        assert "coverage" in text


class TestDefaultRngIndependence:
    """The latent default-sharing bug: two fault models built without
    an explicit rng must not replay each other's stream."""

    def test_default_models_do_not_share_streams(self):
        from repro.faults.models import TransientFault

        a = TransientFault(0.5)
        b = TransientFault(0.5)
        assert a.rng is not b.rng
        # 64 draws colliding by chance ~ 2^-4096: a deterministic
        # shared stream is the only way these could be equal.
        assert not np.array_equal(a.rng.random(64), b.rng.random(64))

    def test_explicit_rng_still_reproducible(self):
        from repro.faults.models import TransientFault

        a = TransientFault(0.5, np.random.default_rng(3))
        b = TransientFault(0.5, np.random.default_rng(3))
        assert np.array_equal(a.rng.random(8), b.rng.random(8))


class TestReliableExecutionEngineParam:
    """Cells select the reliable-execution engine via target params."""

    def test_vectorized_cell_detects_and_recovers(self):
        report = run_campaign(
            small_spec(
                target_params={
                    "vector_length": 8,
                    "operator_kind": "dmr",
                    "engine": "vectorized",
                },
            )
        )
        assert report.complete and report.trials == 30
        assert report.counts[Outcome.SILENT_CORRUPTION.value] == 0
        assert report.detection_coverage == 1.0

    def test_default_engine_keeps_scalar_fault_stream(self):
        """engine defaults to "auto", which resolves to the scalar
        per-operation path for fault-injected trials -- so existing
        campaign results stay bitwise stable."""
        baseline = run_campaign(small_spec(), keep_records=True)
        explicit = run_campaign(
            small_spec(
                target_params={
                    "vector_length": 8,
                    "operator_kind": "dmr",
                    "engine": "scalar",
                },
            ),
            keep_records=True,
        )
        assert [r.to_dict() for r in baseline.records] == [
            r.to_dict() for r in explicit.records
        ]

    def test_unknown_engine_param_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            run_campaign(
                small_spec(
                    trials=1,
                    target_params={
                        "vector_length": 8,
                        "operator_kind": "dmr",
                        "engine": "warp-drive",
                    },
                )
            )

    def test_vectorized_pipeline_campaign_pinned(self):
        """The fault-campaign benchmark's spec: transient faults on the
        vectorized engine, whose repairs replay scalar Algorithm 3
        draw for draw.  The fingerprint predates the draw-exact
        repair and was recorded again when array injection moved to
        gap sampling."""
        spec = CampaignSpec(
            name="e2e-fault-campaign",
            target="pipeline",
            fault=FaultSpec(kind="transient", params={"probability": 1e-4}),
            trials=4,
            seed=1000,
            grid={"fault.probability": (1e-4, 3e-4, 1e-3)},
            target_params={
                "input_size": 48,
                "bucket_ceiling": 1000,
                "engine": "vectorized",
            },
            shard_size=1,
        )
        assert run_campaign(spec).fingerprint() == (
            "b4929e961c3dbffcba5a69651dedaaaf45161684e166c284ad7cf4a0a5febe20"
        )

    def test_pipeline_target_accepts_engine_param(self):
        spec = CampaignSpec(
            name="pipeline-engine-test",
            target="pipeline",
            fault=FaultSpec(kind="transient", params={"probability": 0.0}),
            trials=1,
            seed=3,
            target_params={"input_size": 48, "engine": "vectorized"},
        )
        report = run_campaign(spec)
        assert report.complete and report.trials == 1
