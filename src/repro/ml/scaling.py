"""Feature standardization.

All distance- and margin-based models here (KNN, SVM, logistic regression)
are scale sensitive; bounding-box features mix pixel coordinates (~1000) and
aspect ratios (~1), so the association pipeline standardizes features before
fitting.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import NotFittedError


class StandardScaler:
    """Per-feature zero-mean / unit-variance scaling.

    Constant features get a unit divisor so they pass through centred at 0
    instead of producing NaNs.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        """Learn per-feature mean and scale from ``x``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or len(x) == 0:
            raise ValueError("expected a non-empty (n, d) array")
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-12] = 1.0
        self.scale_ = std
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the learned standardization to ``x``."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler is not fitted yet")
        x = np.asarray(x, dtype=float)
        return (x - self.mean_) / self.scale_
