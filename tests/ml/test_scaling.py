"""Tests for feature standardization."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.scaling import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5, 3, (200, 4))
        scaled = StandardScaler().fit(x).transform(x)
        assert np.allclose(scaled.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1, atol=1e-9)

    def test_constant_feature_passthrough(self):
        x = np.hstack([np.ones((10, 1)) * 7, np.arange(10.0)[:, None]])
        scaled = StandardScaler().fit(x).transform(x)
        assert np.allclose(scaled[:, 0], 0.0)
        assert not np.any(np.isnan(scaled))

    def test_transform_new_data_uses_train_stats(self):
        train = np.array([[0.0], [10.0]])
        scaler = StandardScaler().fit(train)
        out = scaler.transform(np.array([[5.0]]))
        assert out[0, 0] == pytest.approx(0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((1, 2)))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros((0, 2)))

    def test_1d_input_raises(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros(5))
