"""Tests for offline device profiling."""

import pytest

from repro.devices.profiler import DeviceProfile, profile_device
from repro.devices.profiles import JETSON_TX2, latency_model_for


class TestProfileDevice:
    def test_profile_close_to_true_model(self):
        model = latency_model_for(JETSON_TX2)
        profile = profile_device(model, "tx2", n_runs=200, seed=0)
        assert profile.t_full == pytest.approx(model.full_frame_latency(), rel=0.05)
        for size in profile.size_set:
            assert profile.t_size(size) == pytest.approx(
                model.latency(size, model.batch_limit(size)), rel=0.05
            )
            assert profile.batch_limit(size) == model.batch_limit(size)

    def test_noise_free_profile_exact(self):
        model = latency_model_for(JETSON_TX2)
        profile = profile_device(model, "tx2", noise_std_fraction=0.0)
        assert profile.t_full == pytest.approx(model.full_frame_latency())

    def test_deterministic_given_seed(self):
        model = latency_model_for(JETSON_TX2)
        p1 = profile_device(model, "tx2", seed=7)
        p2 = profile_device(model, "tx2", seed=7)
        assert p1.t_full == p2.t_full
        assert p1.batch_latency_ms == p2.batch_latency_ms

    def test_invalid_params_raise(self):
        model = latency_model_for(JETSON_TX2)
        with pytest.raises(ValueError):
            profile_device(model, "tx2", n_runs=0)
        with pytest.raises(ValueError):
            profile_device(model, "tx2", noise_std_fraction=-0.1)


class TestDeviceProfile:
    def valid_kwargs(self):
        return dict(
            device_name="x",
            size_set=(64, 128),
            t_full=100.0,
            batch_latency_ms={64: 5.0, 128: 10.0},
            batch_limits={64: 8, 128: 4},
        )

    def test_valid_profile(self):
        p = DeviceProfile(**self.valid_kwargs())
        assert p.t_size(64) == 5.0
        assert p.batch_limit(128) == 4

    def test_unknown_size_raises(self):
        p = DeviceProfile(**self.valid_kwargs())
        with pytest.raises(KeyError):
            p.t_size(256)
        with pytest.raises(KeyError):
            p.batch_limit(256)

    def test_missing_entries_raise(self):
        kwargs = self.valid_kwargs()
        del kwargs["batch_latency_ms"][128]
        with pytest.raises(ValueError):
            DeviceProfile(**kwargs)

    def test_nonpositive_values_raise(self):
        kwargs = self.valid_kwargs()
        kwargs["t_full"] = 0.0
        with pytest.raises(ValueError):
            DeviceProfile(**kwargs)
        kwargs = self.valid_kwargs()
        kwargs["batch_limits"][64] = 0
        with pytest.raises(ValueError):
            DeviceProfile(**kwargs)
