"""Tests of the experiment harnesses (scaled-down runs)."""

import math

import numpy as np
import pytest

from repro.experiments.ablations import (
    ablate_batch_awareness,
    ablate_coverage_ordering,
    jetson_fleet_profiles,
    measure_optimality_gap,
    random_instance,
)
from repro.experiments.fig10_classification import evaluate_classifiers
from repro.experiments.fig11_regression import evaluate_regressors
from repro.experiments.fig2_workload import workload_trace
from repro.experiments.report import format_table
from repro.scenarios.aic21 import get_scenario


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(
            ["a", "bb"], [(1, 2.5), ("xx", 3.14159)], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])


class TestFig2:
    def test_trace_structure(self):
        trace = workload_trace(
            scenario=get_scenario("S2", seed=0),
            duration_s=30.0,
            sample_interval_s=2.0,
            warmup_s=20.0,
        )
        assert trace.scenario == "S2"
        assert len(trace.sample_times) == 15
        assert set(trace.counts) == {0, 1}
        for series in trace.counts.values():
            assert len(series) == 15

    def test_workload_varies_over_time(self):
        """Figure 2's point: significant temporal variation."""
        trace = workload_trace(
            scenario=get_scenario("S1", seed=0),
            duration_s=80.0,
            sample_interval_s=2.0,
            warmup_s=30.0,
        )
        cvs = trace.coefficient_of_variation()
        assert max(cvs.values()) > 0.1

    def test_relative_swings_computable(self):
        trace = workload_trace(
            scenario=get_scenario("S1", seed=0),
            duration_s=60.0,
            sample_interval_s=2.0,
            warmup_s=30.0,
        )
        cams = sorted(trace.counts)
        swing = trace.relative_workload_swings(cams[0], cams[1])
        assert 0.0 <= swing <= 1.0


class TestFig10And11:
    @pytest.fixture(scope="class")
    def s2_rows(self):
        return (
            evaluate_classifiers("S2", duration_s=60.0, seed=0),
            evaluate_regressors("S2", duration_s=60.0, seed=0),
        )

    def test_all_classifiers_evaluated(self, s2_rows):
        cls_rows, _ = s2_rows
        assert {r.model for r in cls_rows} == {
            "knn", "svm", "logistic", "decision-tree"
        }
        for row in cls_rows:
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.recall <= 1.0

    def test_knn_classifier_competitive(self, s2_rows):
        """KNN precision within a small margin of the best baseline."""
        cls_rows, _ = s2_rows
        by_model = {r.model: r for r in cls_rows}
        best = max(r.precision for r in cls_rows)
        assert by_model["knn"].precision >= best - 0.05

    def test_all_regressors_evaluated(self, s2_rows):
        _, reg_rows = s2_rows
        assert {r.model for r in reg_rows} == {
            "knn", "homography", "linear", "ransac"
        }
        for row in reg_rows:
            assert row.mae_px > 0 or math.isnan(row.mae_px)

    def test_knn_regressor_reasonable(self, s2_rows):
        _, reg_rows = s2_rows
        knn = next(r for r in reg_rows if r.model == "knn")
        assert knn.mae_px < 60.0  # pixels, on 1280-wide frames


class TestAblations:
    def test_batch_awareness_helps(self):
        result = ablate_batch_awareness(n_trials=10, n_objects=25, seed=0)
        assert result.degradation >= 1.0

    def test_coverage_ordering_helps(self):
        result = ablate_coverage_ordering(n_trials=10, n_objects=25, seed=0)
        assert result.degradation >= 0.98  # never materially harmful

    def test_optimality_gap_bounded(self):
        result = measure_optimality_gap(n_trials=6, n_objects=8, seed=0)
        assert 1.0 <= result.mean_ratio < 1.5
        assert result.worst_ratio < 2.0

    def test_random_instance_valid(self):
        profiles = jetson_fleet_profiles(0)
        rng = np.random.default_rng(0)
        inst = random_instance(profiles, 15, rng)
        assert len(inst.objects) == 15
        for obj in inst.objects:
            assert obj.coverage  # non-empty

    def test_random_instance_draws_sizes_like_rng_choice(self):
        """The indexed size draw consumes the stream as ``rng.choice`` does."""
        profiles = jetson_fleet_profiles(0)
        cams = sorted(profiles)
        sizes = (64, 128, 256)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(40):
                k = int(rng.integers(2, len(cams) + 1)) if rng.random() < 0.6 else 1
                coverage = rng.choice(cams, size=k, replace=False)
                want.append([(int(c), int(rng.choice(sizes))) for c in coverage])
            inst = random_instance(profiles, 40, np.random.default_rng(seed))
            assert [list(o.target_sizes.items()) for o in inst.objects] == want
