"""The paper's claims (Figures 2 and 10-14, Table II, the ablations and
the Section V extensions), asserted on the full report golden.

Every number comes from ``.github/golden/report_full_seed0.txt``, which
CI keeps equal to a fresh ``repro report --seed 0 --no-timings``. The
comparison targets shape, as in EXPERIMENTS.md: orderings, approximate
factors and regimes, not the paper's absolute values. The one claim the
report does not print, FIG2's relative-workload flips, reruns the FIG2
workload trace at the report's settings.
"""

import math

import pytest

from repro.experiments.fig2_workload import workload_trace
from repro.experiments.parallel import FULL_PROFILE, SECTION_ORDER
from tests.paper.golden_report import REPORT

SCENARIOS = ("S1", "S2", "S3")


def test_golden_holds_every_report_section():
    assert tuple(REPORT) == SECTION_ORDER


class TestFig2Workload:
    """Workload is non-trivial and varies in absolute and relative terms."""

    table = REPORT["FIG2"].table("Figure 2")

    def test_every_camera_sees_objects(self):
        assert all(m > 0 for m in self.table.column("mean objects"))

    def test_workload_varies_over_time(self):
        assert max(self.table.column("coeff. of variation")) > 0.15

    def test_relative_workload_between_camera_pairs_changes(self):
        trace = workload_trace(
            duration_s=FULL_PROFILE.fig2_duration_s,
            warmup_s=FULL_PROFILE.fig2_warmup_s,
            seed=0,
        )
        means = trace.mean_per_camera()
        # The trace is the one the golden's FIG2 table summarizes.
        assert [round(means[cam], 1) for cam in sorted(means)] == (
            self.table.column("mean objects")
        )
        cams = sorted(means)
        assert any(
            trace.relative_workload_swings(a, b) > 0.0
            for a in cams
            for b in cams
            if a < b
        )


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestFig10Classification:
    """Every model is usable; KNN's precision is at or near the top."""

    table = REPORT["FIG10"].table("Figure 10")

    def rows(self, scenario):
        return {
            model: (
                self.table.value("precision", scenario, model),
                self.table.value("recall", scenario, model),
            )
            for s, model, *_ in self.table.rows
            if s == scenario
        }

    def test_models(self, scenario):
        assert set(self.rows(scenario)) == {
            "knn", "svm", "logistic", "decision-tree"
        }

    def test_every_model_is_usable(self, scenario):
        for model, (precision, recall) in self.rows(scenario).items():
            assert precision > 0.8, f"{model} precision collapsed"
            assert recall > 0.7, f"{model} recall collapsed"

    def test_knn_precision_at_or_near_the_best(self, scenario):
        rows = self.rows(scenario)
        best_precision = max(precision for precision, _ in rows.values())
        assert rows["knn"][0] >= best_precision - 0.05


class TestFig11Regression:
    """KNN is usable everywhere and beats homography where views differ."""

    table = REPORT["FIG11"].table("Figure 11")

    def mae(self, scenario):
        return {
            model: self.table.value("MAE (px)", scenario, model)
            for s, model, _ in self.table.rows
            if s == scenario
        }

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_models(self, scenario):
        assert set(self.mae(scenario)) == {
            "knn", "homography", "linear", "ransac"
        }

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_knn_is_usable(self, scenario):
        knn = self.mae(scenario)["knn"]
        assert not math.isnan(knn)
        assert knn < 60.0  # usable accuracy on 1280 px frames

    @pytest.mark.parametrize("scenario", ("S1", "S3"))
    def test_knn_wins_in_multi_angle_deployments(self, scenario):
        by_model = self.mae(scenario)
        assert by_model["knn"] < by_model["homography"]
        best = min(v for v in by_model.values() if not math.isnan(v))
        assert by_model["knn"] <= best * 1.3


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestFig12Recall:
    """The paper's three recall observations, per scenario."""

    table = REPORT["FIG12"].table("Figure 12")

    def recall(self, scenario):
        return {
            policy: self.table.value("object recall", scenario, policy)
            for s, policy, _ in self.table.rows
            if s == scenario
        }

    def test_slicing_barely_hurts_recall(self, scenario):
        recall = self.recall(scenario)
        assert recall["balb-ind"] >= recall["full"] - 0.08

    def test_distributed_stage_recovers_central_losses(self, scenario):
        recall = self.recall(scenario)
        assert recall["balb"] >= recall["balb-cen"] - 0.02

    def test_balb_recall_competitive_with_full(self, scenario):
        recall = self.recall(scenario)
        assert recall["balb"] >= recall["full"] - 0.1

    def test_recalls_are_meaningful(self, scenario):
        for value in self.recall(scenario).values():
            assert 0.5 <= value <= 1.0


class TestFig13Latency:
    """A multiplicative BALB speedup over Full (paper: 6.85/6.18/2.45x)."""

    table = REPORT["FIG13"].table("Figure 13")

    def latency(self, scenario):
        return {
            policy: self.table.value("slowest-cam ms", scenario, policy)
            for s, policy, *_ in self.table.rows
            if s == scenario
        }

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_balb_speedups(self, scenario):
        lat = self.latency(scenario)
        # Headline shape: a multiplicative speedup over Full.
        assert lat["full"] / lat["balb"] > 2.0
        # BALB never loses to redundant independent tracking.
        assert lat["balb-ind"] / lat["balb"] > 0.95
        # BALB never loses to static partitioning (paper: 1.88x mean win).
        assert lat["sp"] / lat["balb"] > 0.9

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_full_is_the_slowest_policy(self, scenario):
        lat = self.latency(scenario)
        assert lat["full"] == max(lat.values())

    def test_s3_shows_the_smallest_speedup(self):
        """S3 (busy fork, least overlap): the paper's cross-scenario order."""
        speedups = {
            scenario: self.latency(scenario)["full"]
            / self.latency(scenario)["balb"]
            for scenario in SCENARIOS
        }
        assert speedups["S3"] == min(speedups.values())


class TestFig14Horizon:
    """Latency falls with the horizon T while recall trends down; T = 10
    is a good trade-off."""

    table = REPORT["FIG14"].table("Figure 14")
    latencies = table.column("slowest-cam ms")
    recalls = table.column("object recall")

    def test_latency_falls_as_key_frames_amortize(self):
        lat = self.latencies
        assert lat[0] > lat[2] > lat[-1]
        assert lat[0] / lat[-1] > 3.0

    def test_recall_trends_down(self):
        assert self.recalls[0] >= self.recalls[-1] - 0.02

    def test_t10_is_a_good_trade_off(self):
        assert self.table.value("slowest-cam ms", "10") < self.latencies[0] / 2.5
        assert self.table.value("object recall", "10") > self.recalls[0] - 0.08


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestTable2Overhead:
    """Tracking and batching dominate; the distributed stage is free."""

    table = REPORT["TAB2"].table("Table II")

    def test_breakdown(self, scenario):
        def ms(column):
            return self.table.value(column, scenario)

        # Distributed BALB is effectively free (paper: 0.08-0.22 ms).
        assert ms("distributed") < 1.0
        # Tracking is a dominant component (paper: 11-21 ms).
        assert 5.0 < ms("tracking") < 30.0
        # The central stage amortized per frame stays small (paper: 1-2.6 ms).
        assert ms("central") < 6.0
        # The total lands in the paper's tens-of-ms regime.
        assert 10.0 < ms("total") < 60.0
        # Tracking + batching dominate the total.
        assert ms("tracking") + ms("batching") > 0.6 * ms("total")


class TestAblations:
    """BALB's design choices each pay for themselves."""

    section = REPORT["ABLATIONS"]
    table = section.table("BALB design ablations")

    def test_batch_awareness(self):
        degradation = self.table.value("degradation", "batch-awareness")
        # Removing batch-awareness must not help, and typically hurts.
        assert degradation >= 0.999
        assert degradation > 1.02

    def test_coverage_ordering(self):
        # Never materially harmful.
        assert self.table.value("degradation", "coverage-ordering") >= 0.99

    def test_balb_is_near_optimal(self):
        match = self.section.line(
            r"BALB vs optimal on \d+ small instances: "
            r"mean ratio (\S+), worst (\S+)$"
        )
        mean_ratio, worst_ratio = float(match[1]), float(match[2])
        assert mean_ratio >= 1.0
        assert mean_ratio < 1.15  # near-optimal on average
        assert worst_ratio < 1.6

    def test_distributed_stage_buys_recall(self):
        """BALB-Cen (distributed stage off) loses recall on busy S3."""
        fig12 = REPORT["FIG12"].table("Figure 12")
        assert fig12.value("object recall", "S3", "balb") > fig12.value(
            "object recall", "S3", "balb-cen"
        )


class TestExtensions:
    """The Section V extensions: occlusion, bandwidth, energy, skew."""

    section = REPORT["EXTENSIONS"]

    def test_redundancy_recovers_occlusion_losses(self):
        occ = self.section.table("EXT-OCC")
        recall_k1, recall_k2 = (occ.value("recall", k) for k in ("1", "2"))
        latency_k1, latency_k2 = (
            occ.value("slowest-cam ms", k) for k in ("1", "2")
        )
        assert recall_k2 >= recall_k1 - 0.005
        # ...at a bounded latency premium.
        assert latency_k2 / latency_k1 < 1.6

    def test_min_view_cover_saves_bandwidth(self):
        match = self.section.line(
            r"EXT-BW: min view cover uses (\S+)/(\d+) cameras, "
            r"\S+ vs \S+ Mbps \((\d+)% saved\)$"
        )
        selected, n_cameras = float(match[1]), int(match[2])
        savings = int(match[3]) / 100
        assert 0.0 <= savings < 1.0
        assert savings > 0.1
        assert selected < n_cameras

    def test_energy_aware_scheduler_within_deadline(self):
        match = self.section.line(
            r"EXT-EN \(deadline (\d+) ms\): energy \d+ vs \d+ mJ "
            r"\((-?\d+)% saved\) at latency (\S+) vs \S+ ms$"
        )
        deadline_ms, savings = float(match[1]), int(match[2]) / 100
        assert savings >= 0.0
        assert float(match[3]) <= deadline_ms

    def test_camera_skew_costs_recall(self):
        recalls = self.section.table("EXT-SYNC").column("recall")
        # Growing skew must not improve recall, and a real drop appears by
        # the largest lag.
        assert recalls[-1] <= recalls[0] + 0.01
        assert recalls[0] - recalls[-1] > 0.0
