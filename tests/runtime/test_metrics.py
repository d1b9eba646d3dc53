"""Tests for run metrics."""

import pytest

from repro.runtime.metrics import FrameRecord, RunResult, speedup_vs


def record(idx, inference, visible, detected, key=False, overheads=None):
    return FrameRecord(
        frame_index=idx,
        is_key_frame=key,
        inference_ms=inference,
        visible_gt=frozenset(visible),
        detected_gt=frozenset(detected),
        overheads_ms=overheads or {},
    )


class TestRecall:
    def test_perfect_recall(self):
        result = RunResult("balb", "S1", horizon=2)
        result.add(record(0, {0: 1.0}, {1, 2}, {1, 2}))
        result.add(record(1, {0: 1.0}, {3}, {3}))
        assert result.object_recall() == 1.0

    def test_partial_recall(self):
        result = RunResult("balb", "S1", horizon=2)
        result.add(record(0, {0: 1.0}, {1, 2}, {1}))
        result.add(record(1, {0: 1.0}, {1, 2}, {2}))
        assert result.object_recall() == pytest.approx(0.5)

    def test_detections_outside_visible_ignored(self):
        result = RunResult("balb", "S1", horizon=1)
        result.add(record(0, {0: 1.0}, {1}, {1, 99}))
        assert result.object_recall() == 1.0

    def test_empty_frames_recall_one(self):
        result = RunResult("balb", "S1", horizon=1)
        result.add(record(0, {0: 1.0}, set(), set()))
        assert result.object_recall() == 1.0


class TestLatency:
    def test_slowest_camera_per_horizon(self):
        result = RunResult("balb", "S1", horizon=2)
        # Horizon 1: cam0 mean 10, cam1 mean 20 -> 20.
        result.add(record(0, {0: 10.0, 1: 30.0}, set(), set(), key=True))
        result.add(record(1, {0: 10.0, 1: 10.0}, set(), set()))
        # Horizon 2: cam0 mean 50, cam1 mean 5 -> 50.
        result.add(record(2, {0: 60.0, 1: 5.0}, set(), set(), key=True))
        result.add(record(3, {0: 40.0, 1: 5.0}, set(), set()))
        assert result.mean_slowest_latency() == pytest.approx((20 + 50) / 2)

    def test_key_frames_averaged_into_horizon(self):
        result = RunResult("balb", "S1", horizon=2)
        result.add(record(0, {0: 100.0}, set(), set(), key=True))
        result.add(record(1, {0: 0.0}, set(), set()))
        assert result.mean_slowest_latency() == pytest.approx(50.0)

    def test_per_camera_means(self):
        result = RunResult("balb", "S1", horizon=2)
        result.add(record(0, {0: 10.0, 1: 20.0}, set(), set()))
        result.add(record(1, {0: 30.0, 1: 40.0}, set(), set()))
        means = result.per_camera_mean_latency()
        assert means[0] == pytest.approx(20.0)
        assert means[1] == pytest.approx(30.0)

    def test_empty_result(self):
        assert RunResult("balb", "S1", horizon=5).mean_slowest_latency() == 0.0

    def test_speedup_vs(self):
        slow = RunResult("full", "S1", horizon=1)
        slow.add(record(0, {0: 100.0}, set(), set()))
        fast = RunResult("balb", "S1", horizon=1)
        fast.add(record(0, {0: 25.0}, set(), set()))
        assert speedup_vs(slow, fast) == pytest.approx(4.0)


class TestOverheads:
    def test_breakdown_means_and_total(self):
        result = RunResult("balb", "S1", horizon=2)
        result.add(record(0, {}, set(), set(), overheads={"tracking": 10.0}))
        result.add(
            record(
                1, {}, set(), set(),
                overheads={"tracking": 20.0, "batching": 4.0},
            )
        )
        breakdown = result.overhead_breakdown()
        assert breakdown["tracking"] == pytest.approx(15.0)
        assert breakdown["batching"] == pytest.approx(2.0)  # missing -> 0
        assert breakdown["total"] == pytest.approx(17.0)


class TestFaultEdgeCases:
    """RunResult edge cases around coverage loss and degenerate runs."""

    def lossy_record(self, idx, visible, detected, lost):
        return FrameRecord(
            frame_index=idx,
            is_key_frame=False,
            inference_ms={},
            visible_gt=frozenset(visible),
            detected_gt=frozenset(detected),
            coverage_lost=frozenset(lost),
        )

    def test_count_lost_as_missed_widens_denominator(self):
        result = RunResult("balb", "S1", horizon=1)
        result.add(self.lossy_record(0, {1, 2}, {1, 2}, {3, 4}))
        assert result.object_recall() == 1.0
        assert result.object_recall(count_lost_as_missed=True) == (
            pytest.approx(0.5)
        )

    def test_count_lost_as_missed_equals_plain_without_loss(self):
        result = RunResult("balb", "S1", horizon=1)
        result.add(self.lossy_record(0, {1, 2}, {1}, set()))
        assert result.object_recall() == result.object_recall(
            count_lost_as_missed=True
        )

    def test_all_coverage_lost_naive_recall_zero(self):
        result = RunResult("balb", "S1", horizon=1)
        result.add(self.lossy_record(0, set(), set(), {1, 2, 3}))
        assert result.object_recall() == 1.0  # nothing schedulable missed
        assert result.object_recall(count_lost_as_missed=True) == 0.0
        assert result.coverage_loss() == 1.0

    def test_coverage_loss_on_zero_frame_run(self):
        result = RunResult("balb", "S1", horizon=1)
        assert result.n_frames == 0
        assert result.coverage_loss() == 0.0
        assert result.object_recall() == 1.0
        assert result.object_recall(count_lost_as_missed=True) == 1.0
        assert result.mean_slowest_latency() == 0.0

    def test_coverage_loss_mixed_fraction(self):
        result = RunResult("balb", "S1", horizon=1)
        result.add(self.lossy_record(0, {1, 2, 3}, {1, 2, 3}, {4}))
        assert result.coverage_loss() == pytest.approx(0.25)
