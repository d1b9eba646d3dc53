"""Tests for the simulated GPU batch executor."""

import numpy as np
import pytest

from repro.devices.gpu import Batch, GPUExecutor, greedy_plan
from repro.devices.profiles import JETSON_TX2, latency_model_for


def model():
    return latency_model_for(JETSON_TX2)


class TestBatch:
    def test_invalid_batches_raise(self):
        with pytest.raises(ValueError):
            Batch(size=0, count=1)
        with pytest.raises(ValueError):
            Batch(size=64, count=0)


class TestGreedyPlan:
    def test_splits_at_batch_limit(self):
        m = model()
        limit = m.batch_limit(128)
        plan = greedy_plan({128: limit * 2 + 1}, m)
        counts = [b.count for b in plan]
        assert counts == [limit, limit, 1]

    def test_multiple_sizes_ordered(self):
        m = model()
        plan = greedy_plan({256: 1, 64: 1}, m)
        assert [b.size for b in plan] == [64, 256]

    def test_zero_count_skipped(self):
        assert greedy_plan({128: 0}, model()) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            greedy_plan({128: -1}, model())


class TestGPUExecutor:
    def test_deterministic_without_jitter(self):
        m = model()
        ex = GPUExecutor(m, jitter_std_fraction=0.0)
        plan = greedy_plan({128: 4}, m)
        r1 = ex.execute(plan)
        r2 = ex.execute(plan)
        assert r1.total_ms == r2.total_ms
        assert r1.total_ms == pytest.approx(m.latency(128, 4))

    def test_total_is_sum_of_batches(self):
        m = model()
        ex = GPUExecutor(m)
        plan = greedy_plan({64: 2, 128: 3}, m)
        record = ex.execute(plan)
        assert record.total_ms == pytest.approx(sum(record.batch_latencies_ms))
        assert record.n_images == 5

    def test_jitter_varies_results(self):
        m = model()
        ex = GPUExecutor(m, jitter_std_fraction=0.1, rng=np.random.default_rng(0))
        plan = greedy_plan({128: 2}, m)
        results = {ex.execute(plan).total_ms for _ in range(5)}
        assert len(results) > 1

    def test_jitter_never_negative(self):
        m = model()
        ex = GPUExecutor(m, jitter_std_fraction=2.0, rng=np.random.default_rng(1))
        for _ in range(50):
            assert ex.execute(greedy_plan({64: 1}, m)).total_ms > 0

    def test_over_limit_batch_rejected(self):
        m = model()
        ex = GPUExecutor(m)
        too_big = Batch(size=128, count=m.batch_limit(128) + 1)
        with pytest.raises(ValueError):
            ex.execute([too_big])

    def test_full_frame_execution(self):
        m = model()
        ex = GPUExecutor(m, jitter_std_fraction=0.0)
        assert ex.execute_full_frame() == pytest.approx(m.full_frame_latency())

    def test_empty_plan_zero_latency(self):
        ex = GPUExecutor(model())
        record = ex.execute([])
        assert record.total_ms == 0.0
        assert record.n_images == 0

    def test_invalid_jitter_raises(self):
        with pytest.raises(ValueError):
            GPUExecutor(model(), jitter_std_fraction=-0.1)

    def test_jittered_executor_requires_explicit_rng(self):
        # Regression: the silent default_rng(0) fallback was removed —
        # a noisy executor must own a stream seeded from the run config.
        with pytest.raises(ValueError, match="explicit rng"):
            GPUExecutor(model(), jitter_std_fraction=0.1)
