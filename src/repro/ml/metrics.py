"""Evaluation metrics for the ML substrate and experiment harness.

Precision/recall drive the paper's Figure 10 (classification module), mean
absolute error drives Figure 11 (regression module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BinaryMetrics:
    """Confusion-matrix-derived metrics for a binary classifier."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def binary_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> BinaryMetrics:
    """Compute a confusion matrix for 0/1 labels and predictions."""
    y_true = np.asarray(y_true).astype(int)
    y_pred = np.asarray(y_pred).astype(int)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    return BinaryMetrics(tp=tp, fp=fp, fn=fn, tn=tn)


def mean_absolute_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """MAE averaged over all coordinates — the Figure 11 regression metric."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    if y_true.size == 0:
        raise ValueError("cannot compute MAE on empty arrays")
    return float(np.mean(np.abs(y_true - y_pred)))


def train_test_split_indices(
    n: int, train_fraction: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Chronological split: first half trains, second half tests.

    The paper trains the association models on the first half of each video
    and tests on the remainder, so the split is by time, not shuffled.
    """
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    cut = max(1, min(n - 1, int(round(n * train_fraction))))
    idx = np.arange(n)
    return idx[:cut], idx[cut:]
