"""RANSAC-wrapped regression.

The paper's robust regression baseline (Figure 11, their reference [21]):
repeatedly fit a base regressor on random minimal subsets, keep the model
with the largest inlier consensus, and refit on all inliers.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ml.base import Regressor, check_xy, require_fitted
from repro.ml.linear import LinearRegressor


class RANSACRegressor(Regressor):
    """Random sample consensus around an inner regressor (linear by default)."""

    def __init__(
        self,
        base_factory: Callable[[], Regressor] | None = None,
        n_trials: int = 50,
        min_samples: int | None = None,
        residual_threshold: float | None = None,
        seed: int = 0,
    ) -> None:
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        self.base_factory = base_factory or LinearRegressor
        self.n_trials = n_trials
        self.min_samples = min_samples
        self.residual_threshold = residual_threshold
        self.seed = seed
        self.model_: Regressor | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RANSACRegressor":
        x, y = check_xy(x, y, allow_vector_target=True)
        n, d = x.shape
        min_samples = self.min_samples or max(d + 1, 4)
        if n < min_samples:
            # Too few points for consensus; fall back to a plain fit.
            self.model_ = self.base_factory().fit(x, y)
            return self

        threshold = self.residual_threshold
        if threshold is None:
            # MAD-style default: scaled median absolute deviation of targets.
            spread = np.median(np.abs(y - np.median(y, axis=0)), axis=0)
            threshold = float(np.mean(spread)) + 1e-6

        rng = np.random.default_rng(self.seed)
        best_mask: np.ndarray | None = None
        best_count = -1
        for _ in range(self.n_trials):
            idx = rng.choice(n, size=min_samples, replace=False)
            try:
                candidate = self.base_factory().fit(x[idx], y[idx])
            except (ValueError, np.linalg.LinAlgError):
                continue
            residuals = np.mean(np.abs(candidate.predict(x) - y), axis=1)
            mask = residuals <= threshold
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_mask = mask

        if best_mask is None or best_count < min_samples:
            # No consensus found; use everything.
            best_mask = np.ones(n, dtype=bool)
        self.model_ = self.base_factory().fit(x[best_mask], y[best_mask])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        require_fitted(self, "model_")
        assert self.model_ is not None
        return self.model_.predict(x)
