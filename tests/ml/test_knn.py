"""Tests for KNN classification and regression."""

import pickle

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.knn import KNNClassifier, KNNRegressor, _KNNModel


def two_blobs(rng, n=60, sep=6.0):
    x0 = rng.normal(0, 1, (n, 2))
    x1 = rng.normal(sep, 1, (n, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * n + [1] * n, float)
    return x, y


class TestKNNClassifier:
    def test_separable_blobs(self):
        rng = np.random.default_rng(0)
        x, y = two_blobs(rng)
        model = KNNClassifier(k=5).fit(x, y)
        pred = model.predict(x)
        assert (pred == y).mean() > 0.97

    def test_k1_memorizes_training_set(self):
        rng = np.random.default_rng(1)
        x = rng.random((30, 3))
        y = (rng.random(30) > 0.5).astype(float)
        model = KNNClassifier(k=1).fit(x, y)
        assert np.array_equal(model.predict(x), y.astype(int))

    def test_proba_bounds(self):
        rng = np.random.default_rng(2)
        x, y = two_blobs(rng)
        proba = KNNClassifier(k=7).fit(x, y).predict_proba(x)
        assert np.all(proba >= 0) and np.all(proba <= 1)

    def test_weighted_voting(self):
        x = np.array([[0.0], [0.1], [10.0]])
        y = np.array([1.0, 1.0, 0.0])
        model = KNNClassifier(k=3, weighted=True).fit(x, y)
        assert model.predict(np.array([[0.05]]))[0] == 1

    def test_k_larger_than_dataset(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        proba = KNNClassifier(k=100).fit(x, y).predict_proba(np.array([[0.5]]))
        assert proba[0] == pytest.approx(0.5)

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            KNNClassifier(k=0)

    def test_non_binary_labels_raise(self):
        with pytest.raises(ValueError):
            KNNClassifier().fit(np.zeros((3, 1)), np.array([0.0, 1.0, 2.0]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KNNClassifier().predict_proba(np.zeros((1, 2)))

    def test_feature_dim_mismatch_raises(self):
        model = KNNClassifier().fit(np.zeros((4, 3)), np.array([0, 1, 0, 1.0]))
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((1, 2)))


class TestKNNRegressor:
    def test_recovers_linear_function(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, (500, 1))
        y = 3.0 * x + 1.0
        model = KNNRegressor(k=5).fit(x, y)
        queries = np.array([[0.0], [2.0], [-3.0]])
        pred = model.predict(queries)
        expected = 3.0 * queries + 1.0
        assert np.allclose(pred, expected, atol=0.3)

    def test_vector_targets(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 10, (300, 2))
        y = np.hstack([x[:, :1] * 2, x[:, 1:] - 1])
        model = KNNRegressor(k=3).fit(x, y)
        pred = model.predict(x[:10])
        assert pred.shape == (10, 2)
        assert np.allclose(pred, y[:10], atol=1.0)

    def test_k1_returns_nearest_target(self):
        x = np.array([[0.0], [10.0]])
        y = np.array([[1.0], [2.0]])
        model = KNNRegressor(k=1).fit(x, y)
        assert model.predict(np.array([[0.4]]))[0, 0] == pytest.approx(1.0)

    def test_unweighted_mean(self):
        x = np.array([[0.0], [1.0], [100.0]])
        y = np.array([[0.0], [3.0], [300.0]])
        model = KNNRegressor(k=2, weighted=False).fit(x, y)
        assert model.predict(np.array([[0.5]]))[0, 0] == pytest.approx(1.5)

    def test_exact_training_point_weighted(self):
        x = np.array([[0.0], [5.0], [10.0]])
        y = np.array([[1.0], [2.0], [3.0]])
        model = KNNRegressor(k=3, weighted=True).fit(x, y)
        # Query exactly on a training point: weight 1/eps dominates.
        assert model.predict(np.array([[5.0]]))[0, 0] == pytest.approx(2.0, abs=1e-3)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KNNRegressor().predict(np.zeros((1, 2)))

    def test_nan_input_raises(self):
        with pytest.raises(ValueError):
            KNNRegressor().fit(np.array([[np.nan]]), np.array([[1.0]]))


class TestPickles:
    """The fit-time row caches stay out of pickles and are rebuilt on load."""

    def _fitted(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 3.0, (50, 5))
        return [
            KNNClassifier(k=7).fit(x, (x[:, 0] > 0).astype(float)),
            KNNRegressor(k=5).fit(x, x[:, :4] * 2.0),
        ]

    def test_round_trip_rebuilds_the_caches(self):
        for model in self._fitted():
            payload = pickle.dumps(model)
            assert b"_x_norms" not in payload and b"_x_neg2" not in payload
            loaded = pickle.loads(payload)
            for name in ("_x_norms", "_x_neg2"):
                assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
            queries = np.random.default_rng(5).normal(0.0, 3.0, (9, 5))
            assert loaded.neighbours(queries).tolist() == model.neighbours(queries).tolist()

    def test_pickles_that_carry_the_caches_still_load(self, monkeypatch):
        models = self._fitted()
        # Pickled with the whole instance dict, as models entries and
        # cache artifacts were written before the caches left them.
        monkeypatch.delattr(_KNNModel, "__getstate__")
        payloads = [pickle.dumps(model) for model in models]
        monkeypatch.undo()
        for model, payload in zip(models, payloads):
            assert b"_x_norms" in payload
            loaded = pickle.loads(payload)
            for name in ("_x", "_y", "_x_norms", "_x_neg2"):
                assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()

    def test_unfitted_model_round_trips(self):
        loaded = pickle.loads(pickle.dumps(KNNRegressor(k=3)))
        assert loaded._x is None and loaded._x_norms is None and loaded.k == 3
