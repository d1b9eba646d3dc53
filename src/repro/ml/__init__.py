"""From-scratch ML substrate: models used by cross-camera association.

Primary models (the paper's choice): :class:`KNNClassifier` and
:class:`KNNRegressor`. Baselines evaluated in Figures 10/11:
:class:`LinearSVM`, :class:`LogisticClassifier`,
:class:`DecisionTreeClassifier`, :class:`LinearRegressor`,
:class:`RANSACRegressor` (plus homography in :mod:`repro.geometry`).
"""

from repro.ml.base import Classifier, NotFittedError, Regressor
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.hungarian import hungarian
from repro.ml.knn import KNNClassifier, KNNRegressor
from repro.ml.linear import LinearRegressor, LogisticClassifier
from repro.ml.metrics import (
    BinaryMetrics,
    binary_metrics,
    mean_absolute_error,
    train_test_split_indices,
)
from repro.ml.ransac import RANSACRegressor
from repro.ml.scaling import StandardScaler
from repro.ml.svm import LinearSVM

__all__ = [
    "Classifier",
    "Regressor",
    "NotFittedError",
    "KNNClassifier",
    "KNNRegressor",
    "LogisticClassifier",
    "LinearRegressor",
    "LinearSVM",
    "DecisionTreeClassifier",
    "RANSACRegressor",
    "StandardScaler",
    "hungarian",
    "BinaryMetrics",
    "binary_metrics",
    "mean_absolute_error",
    "train_test_split_indices",
]
