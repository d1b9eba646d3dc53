"""Tests for RANSAC-wrapped regression."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.linear import LinearRegressor
from repro.ml.ransac import RANSACRegressor


def linear_with_outliers(rng, n=200, outlier_frac=0.3):
    x = rng.uniform(-10, 10, (n, 1))
    y = 2.0 * x + 1.0
    n_out = int(n * outlier_frac)
    idx = rng.choice(n, n_out, replace=False)
    y[idx] += rng.uniform(50, 100, (n_out, 1)) * rng.choice([-1, 1], (n_out, 1))
    return x, y, idx


class TestRANSAC:
    def test_robust_to_outliers(self):
        rng = np.random.default_rng(0)
        x, y, _ = linear_with_outliers(rng)
        ransac = RANSACRegressor(n_trials=80, residual_threshold=3.0, seed=1)
        ransac.fit(x, y)
        probes = np.array([[-5.0], [0.0], [5.0]])
        expected = 2.0 * probes + 1.0
        assert np.allclose(ransac.predict(probes), expected, atol=0.5)

    def test_plain_least_squares_corrupted_by_outliers(self):
        # Sanity check of the test setup: OLS is pulled off by the outliers.
        rng = np.random.default_rng(0)
        x, y, _ = linear_with_outliers(rng)
        ols = LinearRegressor().fit(x, y)
        probes = np.array([[-5.0], [0.0], [5.0]])
        expected = 2.0 * probes + 1.0
        assert not np.allclose(ols.predict(probes), expected, atol=0.5)

    def test_outliers_stay_off_the_fit(self):
        rng = np.random.default_rng(2)
        x, y, outlier_idx = linear_with_outliers(rng)
        ransac = RANSACRegressor(n_trials=80, residual_threshold=3.0, seed=3)
        residuals = np.abs(ransac.fit(x, y).predict(x) - y)[:, 0]
        clean = np.setdiff1d(np.arange(len(x)), outlier_idx)
        # The overwhelming majority of injected outliers must lie off the
        # fitted line, and every clean point on it.
        assert (residuals[outlier_idx] > 3.0).mean() > 0.9
        assert (residuals[clean] <= 3.0).all()

    def test_clean_data_keeps_everything(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 10, (50, 2))
        y = x @ np.array([[1.0], [2.0]])
        ransac = RANSACRegressor(residual_threshold=1.0).fit(x, y)
        assert np.allclose(ransac.predict(x), y, atol=1e-6)

    def test_tiny_dataset_falls_back_to_plain_fit(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([[0.0], [2.0], [4.0]])
        ransac = RANSACRegressor(min_samples=10).fit(x, y)
        assert np.allclose(ransac.predict(x), y, atol=1e-6)

    def test_multi_output(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 5, (100, 1))
        y = np.hstack([x * 2, x * -3])
        ransac = RANSACRegressor().fit(x, y)
        pred = ransac.predict(np.array([[1.0]]))
        assert pred.shape == (1, 2)
        assert pred[0, 0] == pytest.approx(2.0, abs=0.2)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        x, y, _ = linear_with_outliers(rng)
        a = RANSACRegressor(seed=42).fit(x, y).predict(np.array([[1.0]]))
        b = RANSACRegressor(seed=42).fit(x, y).predict(np.array([[1.0]]))
        assert np.array_equal(a, b)

    def test_invalid_trials_raise(self):
        with pytest.raises(ValueError):
            RANSACRegressor(n_trials=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            RANSACRegressor().predict(np.zeros((1, 1)))
