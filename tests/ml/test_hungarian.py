"""Tests for the from-scratch Hungarian algorithm, including a
property-based comparison against scipy's reference implementation."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest
import scipy.optimize

from repro.ml.hungarian import hungarian


def reference_cost(cost):
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def assignment_cost(cost, pairs):
    """Total cost of the ``(row, col)`` pairs :func:`hungarian` returns."""
    return float(sum(cost[r, c] for r, c in pairs))


class TestHungarianBasics:
    def test_identity_matrix(self):
        assert hungarian([[0.0, 1.0], [1.0, 0.0]]) == [(0, 0), (1, 1)]

    def test_known_instance(self):
        cost = np.array([[4, 1, 3], [2, 0, 5], [3, 2, 2]], float)
        pairs = hungarian(cost.tolist())
        assert assignment_cost(cost, pairs) == reference_cost(cost)

    def test_single_cell(self):
        assert hungarian([[7.0]]) == [(0, 0)]

    @pytest.mark.parametrize(
        "cost", [[], [[]], [[1.0, 2.0], [3.0]], np.zeros((2, 2))]
    )
    def test_empty_ragged_or_array_cost_raises(self, cost):
        with pytest.raises(ValueError):
            hungarian(cost)

    def test_rectangular_wide(self):
        assert hungarian([[5.0, 1.0, 9.0, 2.0]]) == [(0, 1)]

    def test_rectangular_tall(self):
        assert hungarian([[5.0], [1.0], [9.0]]) == [(1, 0)]

    def test_negative_costs(self):
        cost = np.array([[-5, 0], [0, -5]], float)
        pairs = hungarian(cost.tolist())
        assert assignment_cost(cost, pairs) == pytest.approx(-10.0)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            hungarian([[1.0, float("inf")], [0.0, 1.0]])

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            hungarian([1.0, 2.0])

    def test_each_row_and_col_used_once(self):
        rng = np.random.default_rng(0)
        cost = rng.random((6, 9))
        pairs = hungarian(cost.tolist())
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        assert len(set(rows)) == len(rows) == 6
        assert len(set(cols)) == len(cols)


class TestHungarianVsScipy:
    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_optimal_cost_matches_scipy(self, cost):
        pairs = hungarian(cost.tolist())
        assert len(pairs) == min(cost.shape)
        assert assignment_cost(cost, pairs) == pytest.approx(
            reference_cost(cost), abs=1e-6
        )

    def test_large_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, m = rng.integers(5, 40, 2)
            cost = rng.random((n, m)) * 1000
            pairs = hungarian(cost.tolist())
            assert assignment_cost(cost, pairs) == pytest.approx(
                reference_cost(cost), rel=1e-9
            )

    def test_integer_cost_matrix(self):
        cost = np.arange(12).reshape(3, 4)
        pairs = hungarian(cost.tolist())
        assert assignment_cost(cost, pairs) == reference_cost(cost)
