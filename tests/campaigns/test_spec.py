"""CampaignSpec / FaultSpec: validation, grids, round-tripping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaigns import (
    CampaignSpec,
    FaultSpec,
    iter_shards,
    trial_rng,
)
from repro.faults.models import (
    IntermittentFault,
    PermanentFault,
    TransientFault,
)


class TestFaultSpec:
    def test_builds_each_kind(self):
        rng = np.random.default_rng(0)
        assert isinstance(
            FaultSpec(kind="transient").build(rng), TransientFault
        )
        assert isinstance(
            FaultSpec(kind="intermittent").build(rng), IntermittentFault
        )
        assert isinstance(
            FaultSpec(kind="permanent", params={"bit": 5}).build(rng),
            PermanentFault,
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            FaultSpec(kind="transient", params={"bit": 3})

    def test_bad_value_surfaces_at_spec_time(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="transient", params={"probability": 1.5})

    @pytest.mark.parametrize(
        "bit_range", [(0, 40), (5, 5), (-1, 8), (30, 20)]
    )
    def test_bad_bit_range_surfaces_at_spec_time(self, bit_range):
        with pytest.raises(ValueError, match="bit_range"):
            FaultSpec(kind="transient", params={"bit_range": bit_range})

    def test_build_requires_explicit_rng(self):
        with pytest.raises(ValueError, match="explicit Generator"):
            FaultSpec(kind="transient").build(None)

    def test_override_and_roundtrip(self):
        spec = FaultSpec(kind="transient", params={"probability": 1e-3})
        hot = spec.override(probability=0.5)
        assert hot.params["probability"] == 0.5
        assert spec.params["probability"] == 1e-3
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_bit_range_normalised(self):
        spec = FaultSpec(
            kind="transient", params={"bit_range": [23, 31]}
        )
        assert spec.params["bit_range"] == (23, 31)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestCampaignSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(trials=0)
        with pytest.raises(ValueError):
            CampaignSpec(shard_size=0)
        with pytest.raises(ValueError):
            CampaignSpec(atol=-1.0)
        with pytest.raises(ValueError):
            CampaignSpec(target="")
        with pytest.raises(ValueError):
            CampaignSpec(grid={"axis": ()})
        with pytest.raises(TypeError):
            CampaignSpec(fault={"kind": "transient"})
        # Bad numbers fail at construction, not inside run_campaign:
        # no truncation, no bool-as-int, no NaN/inf tolerance.
        for field, value in [
            ("seed", -1),
            ("seed", 1.5),
            ("seed", "3"),
            ("trials", 2.5),
            ("trials", True),
            ("shard_size", 1.5),
            ("shard_size", False),
            ("atol", float("nan")),
            ("atol", float("inf")),
            ("atol", True),
            ("atol", "0"),
        ]:
            with pytest.raises(ValueError, match=field):
                CampaignSpec(**{field: value})

    def test_numpy_integers_normalise_to_int(self):
        spec = CampaignSpec(
            trials=np.int64(10), seed=np.uint32(7), shard_size=np.int8(4)
        )
        assert (spec.trials, spec.seed, spec.shard_size) == (10, 7, 4)
        assert all(
            type(v) is int for v in (spec.trials, spec.seed, spec.shard_size)
        )
        assert spec.content_hash() == CampaignSpec(
            trials=10, seed=7, shard_size=4
        ).content_hash()

    def test_from_dict_rejects_a_bool_trial_count(self):
        data = CampaignSpec(trials=10).to_dict()
        data["trials"] = True
        with pytest.raises(ValueError, match="trials"):
            CampaignSpec.from_dict(data)

    def test_grid_cells_enumerate_sorted_axis_product(self):
        spec = CampaignSpec(
            trials=5,
            grid={
                "operator_kind": ("plain", "dmr"),
                "fault.probability": (1e-3, 1e-2),
            },
        )
        cells = spec.cells()
        assert spec.n_cells == 4 and len(cells) == 4
        # "fault.probability" sorts first -> probability-major order.
        assert [c.overrides for c in cells] == [
            {"fault.probability": 1e-3, "operator_kind": "plain"},
            {"fault.probability": 1e-3, "operator_kind": "dmr"},
            {"fault.probability": 1e-2, "operator_kind": "plain"},
            {"fault.probability": 1e-2, "operator_kind": "dmr"},
        ]
        assert cells[2].fault.params["probability"] == 1e-2
        assert cells[1].params["operator_kind"] == "dmr"
        assert spec.total_trials == 20

    def test_invalid_fault_axis_value_rejected_eagerly(self):
        with pytest.raises(ValueError):
            CampaignSpec(grid={"fault.probability": (0.5, 2.0)})

    def test_roundtrip_and_hash_stability(self):
        spec = CampaignSpec(
            name="rt",
            target="reliable_conv",
            fault=FaultSpec(kind="permanent", params={"bit": 28}),
            trials=7,
            seed=11,
            grid={"operator_kind": ("dmr", "tmr")},
            target_params={"vector_length": 16},
            shard_size=3,
        )
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()
        # JSON round-trip (lists for tuples) is equally lossless.
        import json

        jsoned = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert jsoned == spec

    def test_hash_changes_with_content(self):
        base = CampaignSpec(trials=10)
        assert (
            base.content_hash()
            != CampaignSpec(trials=11).content_hash()
        )
        assert (
            base.content_hash()
            != CampaignSpec(trials=10, seed=1).content_hash()
        )

    def test_shard_enumeration_covers_all_trials(self):
        spec = CampaignSpec(
            trials=10, shard_size=4, grid={"operator_kind": ("a", "b")}
        )
        shards = iter_shards(spec)
        assert [s.count for s in shards] == [4, 4, 2, 4, 4, 2]
        assert [s.index for s in shards] == list(range(6))
        covered = {
            (s.cell, t)
            for s in shards
            for t in range(s.start, s.start + s.count)
        }
        assert len(covered) == spec.total_trials


class TestSeeding:
    def test_stream_addressed_by_cell_and_trial_only(self):
        a = trial_rng(42, cell_index=3, trial_index=7).random(4)
        b = trial_rng(42, cell_index=3, trial_index=7).random(4)
        assert (a == b).all()

    def test_neighbouring_trials_independent(self):
        a = trial_rng(42, 0, 0).random(4)
        b = trial_rng(42, 0, 1).random(4)
        c = trial_rng(42, 1, 0).random(4)
        assert not (a == b).all()
        assert not (a == c).all()

    def test_matches_seedsequence_spawn_tree(self):
        """Direct addressing equals the documented spawn-tree walk."""
        spawned = (
            np.random.SeedSequence(9).spawn(4)[3].spawn(8)[7]
        )
        direct = np.random.SeedSequence(9, spawn_key=(3, 7))
        assert (
            spawned.generate_state(4).tolist()
            == direct.generate_state(4).tolist()
        )

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            trial_rng(0, -1, 0)
