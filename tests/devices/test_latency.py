"""Tests for the analytic GPU latency model."""

import pytest

from repro.devices.latency import GPUSpec, LatencyModel


def small_gpu():
    return GPUSpec(
        compute_ms_per_mpx=500.0,
        kernel_overhead_ms=5.0,
        marginal_batch_fraction=0.2,
        memory_mb=30.0,
        max_batch=8,
    )


class TestGPUSpec:
    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            GPUSpec(0, 1, 0.2, 10)
        with pytest.raises(ValueError):
            GPUSpec(100, -1, 0.2, 10)
        with pytest.raises(ValueError):
            GPUSpec(100, 1, 0.0, 10)
        with pytest.raises(ValueError):
            GPUSpec(100, 1, 1.5, 10)
        with pytest.raises(ValueError):
            GPUSpec(100, 1, 0.2, 0)
        with pytest.raises(ValueError):
            GPUSpec(100, 1, 0.2, 10, max_batch=0)


class TestLatencyModel:
    def test_monotone_in_size(self):
        model = LatencyModel(small_gpu())
        lats = [model.latency(s, 1) for s in model.size_set]
        assert all(a <= b + 1e-9 for a, b in zip(lats, lats[1:]))

    def test_monotone_in_batch_within_limit(self):
        model = LatencyModel(small_gpu())
        limit = model.batch_limit(128)
        lats = [model.latency(128, b) for b in range(1, limit + 1)]
        assert all(a <= b + 1e-9 for a, b in zip(lats, lats[1:]))

    def test_batching_cheaper_than_serial(self):
        model = LatencyModel(small_gpu())
        limit = model.batch_limit(128)
        if limit > 1:
            batched = model.latency(128, limit)
            serial = limit * model.latency(128, 1)
            assert batched < serial

    def test_marginal_batch_cost_small(self):
        model = LatencyModel(small_gpu())
        l1 = model.latency(128, 1)
        l2 = model.latency(128, 2)
        # The second image costs a fraction of the first's compute.
        assert l2 - l1 < l1 - model.spec.kernel_overhead_ms

    def test_inflection_past_batch_limit(self):
        model = LatencyModel(small_gpu())
        limit = model.batch_limit(256)
        below = model.latency(256, limit)
        above = model.latency(256, limit + 1)
        marginal_in = model.latency(256, 2) - model.latency(256, 1)
        assert above - below > marginal_in  # steeper past the limit

    def test_batch_limit_decreases_with_size(self):
        model = LatencyModel(small_gpu())
        assert model.batch_limit(64) >= model.batch_limit(256) >= model.batch_limit(512)

    def test_batch_limit_at_least_one(self):
        model = LatencyModel(small_gpu())
        assert model.batch_limit(512) >= 1

    def test_batch_limit_capped_by_max_batch(self):
        model = LatencyModel(small_gpu())
        assert model.batch_limit(64) <= small_gpu().max_batch

    def test_full_frame_latency_larger_than_all_slices(self):
        model = LatencyModel(small_gpu())
        assert model.full_frame_latency() > model.latency(
            128, model.batch_limit(128)
        )

    def test_invalid_inputs_raise(self):
        model = LatencyModel(small_gpu())
        with pytest.raises(ValueError):
            model.latency(128, 0)
        with pytest.raises(ValueError):
            model.latency(0, 1)
        with pytest.raises(ValueError):
            LatencyModel(small_gpu(), size_set=())
