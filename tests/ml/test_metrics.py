"""Tests for classification/regression metrics and the chronological split."""

import numpy as np
import pytest

from repro.ml.metrics import (
    binary_metrics,
    mean_absolute_error,
    train_test_split_indices,
)


class TestBinaryMetrics:
    def test_perfect_prediction(self):
        y = np.array([1, 0, 1, 0])
        m = binary_metrics(y, y)
        assert m.precision == 1.0 and m.recall == 1.0
        assert m.f1 == 1.0

    def test_all_wrong(self):
        y = np.array([1, 0, 1, 0])
        m = binary_metrics(y, 1 - y)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_counts(self):
        y_true = np.array([1, 1, 0, 0, 1])
        y_pred = np.array([1, 0, 1, 0, 1])
        m = binary_metrics(y_true, y_pred)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 1)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        m = binary_metrics(np.array([1, 1]), np.array([0, 0]))
        assert m.precision == 0.0  # guarded division
        assert m.recall == 0.0

    def test_no_positive_labels(self):
        m = binary_metrics(np.array([0, 0]), np.array([0, 1]))
        assert m.recall == 0.0
        assert (m.tp, m.fp, m.fn, m.tn) == (0, 1, 0, 1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            binary_metrics(np.array([1]), np.array([1, 0]))


class TestMAE:
    def test_simple(self):
        assert mean_absolute_error(
            np.array([1.0, 2.0]), np.array([2.0, 4.0])
        ) == pytest.approx(1.5)

    def test_matrix_inputs(self):
        a = np.zeros((3, 4))
        b = np.full((3, 4), 2.0)
        assert mean_absolute_error(a, b) == pytest.approx(2.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.zeros(3), np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.array([]), np.array([]))


class TestSplit:
    def test_half_split(self):
        tr, te = train_test_split_indices(10, 0.5)
        assert list(tr) == list(range(5))
        assert list(te) == list(range(5, 10))

    def test_chronological_order(self):
        tr, te = train_test_split_indices(100, 0.7)
        assert max(tr) < min(te)

    def test_extreme_fractions_keep_both_sides(self):
        tr, te = train_test_split_indices(5, 0.01)
        assert len(tr) >= 1 and len(te) >= 1
        tr, te = train_test_split_indices(5, 0.99)
        assert len(tr) >= 1 and len(te) >= 1

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            train_test_split_indices(1)
        with pytest.raises(ValueError):
            train_test_split_indices(10, 0.0)
        with pytest.raises(ValueError):
            train_test_split_indices(10, 1.0)
