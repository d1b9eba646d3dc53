"""K-nearest-neighbour models.

The paper's association module uses non-parametric KNN for both the
cross-camera visibility classifier and the location regressor: "It works as
a special lookup table which uses the nearest case(s) in the memory to
generate the prediction" (Section II-C).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    Classifier,
    Regressor,
    check_features,
    check_xy,
    require_fitted,
)


def _k_nearest(
    train_norms: np.ndarray,
    train_neg2: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> np.ndarray:
    """Indices (n_queries, k) of the k nearest training rows per query.

    Brute-force Euclidean search; the association training sets are a few
    thousand rows, so this is both simple and fast enough. The training
    rows come as the fit-time cache of their squared norms and of
    ``train * -2.0``: recomputing the norms per query was most of the
    batch-query cost, and scaling by a power of two is exact and
    distributes over addition without rounding, so the product with the
    pre-scaled array is bit-identical to scaling afterwards.
    """
    # (q, t) squared distances via the expansion |a-b|^2 = |a|^2 - 2ab + |b|^2,
    # built in place: gemm once, then shift without temporaries.
    # Bit-identical to the one-expression chain — float addition is
    # commutative and the grouping ((-2g) + |a|^2) + |b|^2 matches the
    # left-to-right evaluation of |a|^2 - 2g + |b|^2 exactly.
    d2 = queries @ train_neg2.T
    d2 += np.sum(queries**2, axis=1)[:, None]
    d2 += train_norms[None, :]
    k = min(k, len(train_neg2))
    idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
    # Sort the selected k by distance so weighting is stable.
    rows = _row_index(len(queries))
    order = np.argsort(d2[rows, idx], axis=1)
    return idx[rows, order]


_ROW_INDEX = np.arange(0)[:, None]


def _row_index(n: int) -> np.ndarray:
    """Cached ``arange(n)[:, None]`` (row selector for fancy indexing)."""
    global _ROW_INDEX
    if len(_ROW_INDEX) < n:
        _ROW_INDEX = np.arange(n)[:, None]
        _ROW_INDEX.setflags(write=False)
    return _ROW_INDEX[:n]


class _KNNModel:
    """Fit-time row cache and neighbour selection shared by both models.

    Prediction is split in two: :meth:`neighbours` selects each query's
    k nearest training rows, and the subclass's voting or regression
    turns those rows into outputs. The second step depends only on the
    values of the selected rows, in order, so a caller that knows the
    same rows by other means can replay it: the key-frame association
    pass in :mod:`repro.association.pairwise` mirrors it, stacked over
    every source camera and model, on its shared neighbours.
    """

    #: Fit-time caches of the training rows' squared norms and of
    #: ``x * -2.0``. Pickles leave them out, and loading rebuilds them
    #: from ``_x`` with the expressions of the fit.
    _CACHES = ("_x_norms", "_x_neg2")

    def __init__(self, k: int, weighted: bool) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.weighted = weighted
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._x_norms: np.ndarray | None = None
        self._x_neg2: np.ndarray | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._CACHES:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickles that still carry the caches load too; they are rebuilt.
        self.__dict__.update(state)
        self._cache_rows()

    def _store(self, x: np.ndarray, y: np.ndarray) -> None:
        self._x = x
        self._y = y
        self._cache_rows()

    def _cache_rows(self) -> None:
        x = self._x
        self._x_norms = None if x is None else np.sum(x**2, axis=1)
        self._x_neg2 = None if x is None else x * -2.0

    def neighbours(self, x: np.ndarray) -> np.ndarray:
        """Indices (n, k) of each row's nearest training rows, nearest first.

        ``x`` holds validated query features (see ``check_features``).
        """
        assert self._x_norms is not None and self._x_neg2 is not None
        return _k_nearest(self._x_norms, self._x_neg2, x, self.k)

    def _weights(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        assert self._x is not None
        dists = np.linalg.norm(x[:, None, :] - self._x[idx], axis=2)
        return 1.0 / (dists + 1e-9)


class KNNClassifier(_KNNModel, Classifier):
    """Majority-vote KNN binary classifier with optional distance weighting."""

    def __init__(self, k: int = 5, weighted: bool = False) -> None:
        super().__init__(k, weighted)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNClassifier":
        x, y = check_xy(x, y)
        labels = np.unique(y)
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ValueError("labels must be 0/1")
        self._store(x, y)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        require_fitted(self, "_x")
        assert self._x is not None
        x = check_features(x, self._x.shape[1])
        return self.vote(x, self.neighbours(x))

    def vote(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Class-1 probability of each row of ``x`` from its neighbours ``idx``."""
        assert self._y is not None
        votes = self._y[idx]
        if not self.weighted:
            return votes.mean(axis=1)
        weights = self._weights(x, idx)
        return (votes * weights).sum(axis=1) / weights.sum(axis=1)


class KNNRegressor(_KNNModel, Regressor):
    """Mean-of-neighbours KNN regressor with optional distance weighting."""

    def __init__(self, k: int = 5, weighted: bool = True) -> None:
        super().__init__(k, weighted)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNRegressor":
        x, y = check_xy(x, y, allow_vector_target=True)
        self._store(x, y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        require_fitted(self, "_x")
        assert self._x is not None
        x = check_features(x, self._x.shape[1])
        return self.regress(x, self.neighbours(x))

    def regress(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Targets for the rows of ``x`` from their neighbours ``idx``.

        The weighted sums run over ``idx`` in order, nearest first, so
        the order of equal-valued neighbours does not matter but the
        order of distinct ones does.
        """
        assert self._y is not None
        targets = self._y[idx]  # (q, k, out)
        if not self.weighted:
            return targets.mean(axis=1)
        weights = self._weights(x, idx)
        return (targets * weights[:, :, None]).sum(axis=1) / weights.sum(axis=1)[
            :, None
        ]
