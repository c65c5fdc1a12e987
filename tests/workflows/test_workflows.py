"""Experiment workflows: structure and paper-claim assertions.

These are integration tests; the session-scoped ``trained_model``
fixture keeps them fast.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from repro.models import small_cnn
from repro.workflows import (
    run_bucket_dynamics,
    run_confusion_comparison,
    run_cost_comparison,
    run_coverage_study,
    run_figure3,
    run_figure4,
    run_table1,
    time_sax_qualifier,
)
from repro.workflows.shape_series import (
    ascii_plot,
    count_corners,
    qualifier_verdicts_by_class,
)


class TestTable1:
    @pytest.fixture(scope="class")
    def runs(self):
        # Three scaled runs (~1 s each), so wall-clock asserts can take
        # the median instead of one sample on a noisy host.
        return [run_table1(full=False, seed=0) for _ in range(3)]

    @pytest.fixture(scope="class")
    def result(self, runs):
        return runs[0]

    def test_ordering_matches_paper(self, result):
        """native << plain < redundant (the paper's Table 1 shape)."""
        assert result.native_seconds < result.plain_seconds
        assert result.plain_seconds < result.redundant_seconds

    def test_redundant_ratio_in_band(self, runs):
        # Paper: 2.15x.  Python wrapper overhead compresses the
        # wall-clock ratio; its median over the runs must still land
        # clearly above 1 and not beyond the theoretical 2.15 plus
        # margin.
        ratio = statistics.median(run.redundant_over_plain for run in runs)
        assert 1.1 < ratio < 2.6

    def test_unit_execution_ratio_exact(self, result):
        assert result.unit_execution_ratio == 2.0

    def test_per_op_python_orders_of_magnitude_above_native(self, result):
        assert result.plain_over_native > 100

    def test_extrapolation_consistent(self, result):
        # Extrapolated full-scale plain time should be within an
        # order of magnitude of the paper's 301.91 s.
        projected = result.extrapolated_plain_full()
        assert 30.0 < projected < 3000.0

    def test_to_text_contains_rows(self, result):
        text = result.to_text()
        assert "Algorithm 1" in text and "Algorithm 2" in text

    def test_sax_timing_order_of_magnitude(self):
        seconds = time_sax_qualifier(image_size=227, repeats=1)
        # Paper: 1.942 s naive; ours is vectorised but must stay well
        # under the reliable-conv times and above trivial noise.
        assert 1e-4 < seconds < 10.0


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure3(rotation_deg=7.0)

    def test_eight_corners_clearly_identified(self, result):
        assert result.corner_count == 8

    def test_word_and_series_shapes(self, result):
        assert len(result.sax_word) == 32
        assert result.series.shape == (128,)

    def test_text_rendering(self, result):
        text = result.to_text()
        assert result.sax_word in text
        assert "corners detected: 8" in text

    def test_only_stop_matches_octagon(self):
        verdicts = qualifier_verdicts_by_class()
        assert verdicts["stop"] is True
        assert sum(verdicts.values()) == 1

    def test_count_corners_on_synthetic_wave(self):
        angles = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        wave = 10.0 + np.cos(8 * angles)
        assert count_corners(wave) == 8

    def test_ascii_plot_dimensions(self):
        plot = ascii_plot(np.sin(np.linspace(0, 6, 50)), height=7,
                          width=40)
        lines = plot.splitlines()
        assert len(lines) == 7
        assert all(len(line) == 40 for line in lines)
        with pytest.raises(ValueError):
            ascii_plot(np.zeros(4), height=1)


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self, trained_model):
        return run_figure4(trained=trained_model)

    def test_one_measurement_per_filter(self, result):
        assert len(result.confidences) == result.n_filters
        assert len(result.accuracies) == result.n_filters

    def test_confidence_varies_substantially(self, result):
        """The paper's headline Figure 4 observation."""
        assert result.confidence_spread > 0.02

    def test_model_restored_after_sweep(self, trained_model):
        # Sweep must not leave a Sobel filter behind: accuracy of the
        # fixture model is unchanged.
        from repro.analysis import accuracy

        value = accuracy(
            trained_model.model, trained_model.test_x,
            trained_model.test_y,
        )
        assert value == trained_model.test_accuracy

    def test_reference_line_present(self, result):
        assert 0.0 <= result.original_accuracy <= 1.0
        assert "original accuracy" in result.to_text()

    def test_most_sensitive_filter_valid_index(self, result):
        assert 0 <= result.most_sensitive_filter() < result.n_filters


class TestConfusionComparison:
    def test_single_replacement_no_substantial_difference(
        self, trained_model
    ):
        """Paper: 'we compare both the confusion matrices ... and note
        no substantial difference in classification accuracy.'"""
        comparison = run_confusion_comparison(trained=trained_model)
        assert abs(comparison.accuracy_drop) < 0.15
        n_test = len(trained_model.test_y)
        assert comparison.original.max_abs_difference(
            comparison.replaced
        ) <= max(3, n_test // 10)

    def test_text_includes_matrices(self, trained_model):
        comparison = run_confusion_comparison(trained=trained_model)
        text = comparison.to_text()
        assert "original confusion matrix" in text
        assert "stop" in text


class TestCostComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_cost_comparison(
            small_cnn(32, 8, conv1_filters=8), (3, 32, 32)
        )

    def test_hybrid_between_native_and_duplicated(self, result):
        assert result.native_ops < result.hybrid_ops
        assert result.hybrid_ops < result.duplicated_ops

    def test_sweep_monotone(self, result):
        ops = [row[1] for row in result.partition_sweep]
        assert ops == sorted(ops)

    def test_guarantee_numbers_attached(self, result):
        assert result.protected_sdc < result.unprotected_sdc

    def test_text(self, result):
        text = result.to_text()
        assert "hybrid saves" in text


class TestBucketDynamics:
    def test_canonical_rows_match_paper_sentence(self):
        result = run_bucket_dynamics(factors=(2,))
        by_pattern = {
            pattern: overflowed
            for _, _, pattern, overflowed in result.rows
        }
        assert by_pattern["ssssssEssssss"] is False
        assert by_pattern["ssssssEEssssss"] is True
        assert by_pattern["ssEssssssEss"] is False

    def test_text_table(self):
        text = run_bucket_dynamics().to_text()
        assert "ABORT" in text and "survive" in text


class TestCoverageStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_coverage_study(
            fault_kinds=("transient", "permanent"),
            probabilities=(1e-2,),
            runs=60,
            seed=3,
        )

    def test_row_grid_complete(self, result):
        assert len(result.rows) == 2 * 3  # 2 fault kinds x 3 operators

    def test_dmr_beats_plain_on_transients(self, result):
        rows = {
            (r.fault_kind, r.operator_kind): r for r in result.rows
        }
        assert rows[("transient", "plain")].coverage == 0.0
        assert rows[("transient", "dmr")].coverage == 1.0
        assert rows[("transient", "tmr")].sdc_rate == 0.0

    def test_permanent_faults_all_protections_fail(self, result):
        rows = {
            (r.fault_kind, r.operator_kind): r for r in result.rows
        }
        for op in ("plain", "dmr", "tmr"):
            assert rows[("permanent", op)].sdc_rate == 1.0

    def test_wilson_bound_at_least_point(self, result):
        for row in result.rows:
            assert row.sdc_upper_bound >= row.sdc_rate - 1e-12

    def test_text_table(self, result):
        assert "coverage" in result.to_text()
