"""Per-camera-pair visibility classification and location regression.

Implements the first two steps of the paper's association procedure
(Section II-C): a classifier decides whether a box seen on camera ``i``
also appears on camera ``i'``; when positive, a regressor predicts its
box on ``i'``. Models are pluggable so the Figure 10/11 baselines reuse
the same machinery.

The matcher asks every ordered pair ``(i, i')`` about the same boxes of
camera ``i``, and all of ``i``'s pair classifiers hold the same training
rows. :class:`SourceIndex` exploits that: one pass per source camera per
call (:meth:`PairwiseAssociator.predict_source`) serves every pair with
one neighbour search, one vote and one regression, and a floating-point
certificate proves each pair's derived neighbours equal its own
brute-force search, or sends that pair down the brute-force path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.association.training import (
    AssociationDataset,
    PairDataset,
    PairKey,
)
from repro.geometry.box import BBox, corner_array
from repro.ml.base import Classifier, Regressor
from repro.ml.knn import KNNClassifier, KNNRegressor, _row_index
from repro.ml.scaling import StandardScaler

ClassifierFactory = Callable[[], Classifier]
RegressorFactory = Callable[[], Regressor]


def default_classifier_factory() -> Classifier:
    """The paper's choice: KNN classification."""
    return KNNClassifier(k=7)


def default_regressor_factory() -> Regressor:
    """The paper's choice: KNN regression (distance weighted)."""
    return KNNRegressor(k=5, weighted=True)


#: One pair's prediction for a source camera's boxes: the query rows
#: classified visible that have a predicted box, and those boxes'
#: ``(x1, y1, x2, y2)`` corners as a ``(len(idx), 4)`` float64 array.
Prediction = Tuple[np.ndarray, np.ndarray]


#: The prediction of a pair that predicts no boxes. Its arrays have no
#: elements, so sharing it is safe.
NO_BOXES: Prediction = (np.zeros(0, dtype=np.intp), np.zeros((0, 4)))


def target_corners(targets: np.ndarray) -> np.ndarray:
    """Box corners from regressed ``(cx, cy, w, h)`` rows (last axis).

    The inverse of :func:`repro.association.training.box_target`, with
    each size clamped to at least 2.0. The arithmetic mirrors
    ``BBox.from_xywh`` exactly (np.maximum is the same selection as max;
    w >= 2.0 subsumes from_xywh's max(0.0, w)), so each corner is
    bit-identical to the box built one row at a time.
    """
    cx, cy = targets[..., 0], targets[..., 1]
    w = np.maximum(targets[..., 2], 2.0)
    h = np.maximum(targets[..., 3], 2.0)
    return np.stack(
        (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0), axis=-1
    )


@dataclass
class PairModel:
    """Fitted classifier + regressor for one ordered camera pair."""

    pair: PairKey
    classifier: Optional[Classifier]
    regressor: Optional[Regressor]
    feature_scaler: Optional[StandardScaler]
    constant_label: Optional[int] = None  # when training labels are constant

    def predict_visible_batch(
        self, boxes: Sequence[BBox], threshold: float = 0.5
    ) -> np.ndarray:
        """Is each source box visible on the target camera? One classifier call.

        Returns a boolean array aligned with ``boxes``. Agrees elementwise
        with asking about one box at a time: the KNN distance computation
        is row-wise independent, so batching changes only the BLAS call
        shape.
        """
        n = len(boxes)
        if self.constant_label is not None:
            return np.full(n, bool(self.constant_label))
        if self.classifier is None or self.feature_scaler is None or n == 0:
            return np.zeros(n, dtype=bool)
        feats = self._scaled_features_batch(boxes)
        return np.asarray(self.classifier.predict_proba(feats) >= threshold)

    def predict_boxes(self, boxes: Sequence[BBox]) -> List[Optional[BBox]]:
        """Predicted target-camera box of each source box: one regressor call."""
        if self.regressor is None or self.feature_scaler is None or not boxes:
            return [None] * len(boxes)
        feats = self._scaled_features_batch(boxes)
        corners = target_corners(self.regressor.predict(feats)).tolist()
        return [BBox(*row) for row in corners]

    def predict_visible_boxes(
        self, corners: np.ndarray, threshold: float = 0.5
    ) -> Prediction:
        """Fused :meth:`predict_visible_batch` + :meth:`predict_boxes` on corners.

        ``corners`` holds the source boxes as an ``(n, 4)`` array. Returns
        ``(idx, boxes)``: the rows classified visible and their predicted
        corners. A pair without a regressor predicts no boxes, so it
        returns no rows. The scaled feature matrix is built once and fed
        to both models; row slicing commutes with the elementwise scaler
        and the KNN distance rows are independent, so both outputs are
        bit-identical to the two separate calls this replaces.

        This is the per-pair path: each model runs its own brute-force
        search. It is also the oracle of
        :meth:`PairwiseAssociator.predict_source`'s shared pass.
        """
        n = len(corners)
        feats: Optional[np.ndarray] = None
        if self.constant_label is not None:
            idx = np.arange(n if self.constant_label else 0)
        elif self.classifier is None or self.feature_scaler is None or n == 0:
            return NO_BOXES
        else:
            feats = self._scaled_corners(corners)
            idx = np.flatnonzero(self.classifier.predict_proba(feats) >= threshold)
        if not len(idx) or self.regressor is None or self.feature_scaler is None:
            return NO_BOXES
        if feats is None:
            cand_feats = self._scaled_corners(corners[idx])
        elif len(idx) == n:
            cand_feats = feats
        else:
            cand_feats = feats[idx]
        return idx, target_corners(self.regressor.predict(cand_feats))

    def _scaled_features_batch(self, boxes: Sequence[BBox]) -> np.ndarray:
        return self._scaled_corners(corner_array(boxes))

    def _scaled_corners(self, corners: np.ndarray) -> np.ndarray:
        assert self.feature_scaler is not None
        # Vectorized box_features of an (n, 4) corner array. Every
        # expression mirrors box_features/as_xywh exactly (np.maximum is
        # the same exact selection as max), so rows are bit-identical.
        raw = np.empty((len(corners), 5), dtype=float)
        raw[:, 0] = (corners[:, 0] + corners[:, 2]) / 2.0  # cx
        raw[:, 1] = (corners[:, 1] + corners[:, 3]) / 2.0  # cy
        w = corners[:, 2] - corners[:, 0]
        h = corners[:, 3] - corners[:, 1]
        raw[:, 2] = w
        raw[:, 3] = h
        raw[:, 4] = w / np.maximum(h, 1e-6)
        return self.feature_scaler.transform(raw)


class PairwiseAssociator:
    """All pair models for a camera rig, fitted from an AssociationDataset."""

    def __init__(
        self,
        classifier_factory: ClassifierFactory = default_classifier_factory,
        regressor_factory: RegressorFactory = default_regressor_factory,
    ) -> None:
        self.classifier_factory = classifier_factory
        self.regressor_factory = regressor_factory
        self._models: Dict[PairKey, PairModel] = {}
        # Counts the fits; downstream memos keyed on this instance's
        # fitted state (e.g. the camera-mask cache) include it.
        self._fit_token = 0
        self._sources: Dict[int, SourceIndex] = {}

    def fit(self, dataset: AssociationDataset) -> "PairwiseAssociator":
        """Fit one classifier/regressor pair per ordered camera pair."""
        self._fit_token += 1
        self._models = {
            key: self._fit_pair(pair_ds) for key, pair_ds in dataset.pairs.items()
        }
        self._sources = build_source_indexes(self._models)
        return self

    def model(self, source: int, target: int) -> Optional[PairModel]:
        """The fitted model for the ordered pair, or None if untrained."""
        return self._models.get((source, target))

    def predict_source(
        self,
        source: int,
        corners: np.ndarray,
        targets: Sequence[int],
        threshold: float = 0.5,
    ) -> List[Prediction]:
        """Every target's :meth:`PairModel.predict_visible_boxes` for one source.

        ``corners`` holds the ``source`` camera's boxes as an ``(n, 4)``
        array. Returns one ``(idx, boxes)`` per target, in order; an
        untrained pair predicts none. The targets whose pair models are in
        the source's :class:`SourceIndex` get theirs from one shared pass
        (:meth:`SourceIndex.predict`); the others, and all of them when
        that pass declines, from their own pair model. The outputs are
        the same either way.
        """
        index = self._sources.get(source)
        readers = (
            [t for t in targets if t in index.column]
            if index is not None and len(corners)
            else []
        )
        shared = index.predict(corners, readers, threshold) if readers else None
        out = []
        for target in targets:
            if shared is not None and target in shared:
                out.append(shared[target])
                continue
            model = self._models.get((source, target))
            out.append(
                NO_BOXES if model is None
                else model.predict_visible_boxes(corners, threshold)
            )
        return out

    def predict_visible_many(
        self, source: int, target: int, boxes: Sequence[BBox]
    ) -> np.ndarray:
        """Visibility of many source boxes in one classifier call."""
        model = self._models.get((source, target))
        if model is None:
            return np.zeros(len(boxes), dtype=bool)
        return model.predict_visible_batch(boxes)

    # ------------------------------------------------------------------
    def _fit_pair(self, pair_ds: PairDataset) -> PairModel:
        if pair_ds.n_samples == 0:
            return PairModel(
                pair=pair_ds.pair,
                classifier=None,
                regressor=None,
                feature_scaler=None,
                constant_label=0,
            )
        x_cls, y_cls = pair_ds.classification_arrays()
        scaler = StandardScaler().fit(x_cls)
        labels = set(np.unique(y_cls).tolist())
        constant = int(y_cls[0]) if len(labels) == 1 else None
        classifier = None
        if constant is None:
            classifier = self.classifier_factory().fit(
                scaler.transform(x_cls), y_cls
            )
        regressor = None
        if pair_ds.n_positive >= 3:
            x_reg, y_reg = pair_ds.regression_arrays()
            regressor = self.regressor_factory().fit(
                scaler.transform(x_reg), y_reg
            )
        return PairModel(
            pair=pair_ds.pair,
            classifier=classifier,
            regressor=regressor,
            feature_scaler=scaler,
            constant_label=constant,
        )


# ----------------------------------------------------------------------
# Shared per-source neighbour search

#: Unique training rows the shared search lists per query, nearest
#: first; the last one only bounds the rows past the list. The
#: classifiers need their 7 neighbours and the regressors 5 rows visible
#: on their target inside the list. Fallback share over 40 S1 key frames
#: at seeds 0 and 7919 (1,440 pair calls): 4.0% at K = 8, 0.3% at 12,
#: none from 16 up; 24 leaves headroom at no measurable cost.
SHARED_DEPTH = 24

_UNIT_ROUNDOFF = 2.0**-53


def distance_tolerance(feats: np.ndarray, max_sq_norm: float) -> np.ndarray:
    """Per query row: distance gaps above this order rows alike in any search.

    :func:`repro.ml.knn._k_nearest` computes the squared distance of a
    query ``q`` and a training row ``t`` over ``d`` features as
    ``fl(fl(q·(-2t)) + fl(|q|²)) + fl(|t|²)``; the shared search computes
    ``fl(q·(-2t)) + fl(|t|²)``, leaving out ``|q|²``, which is the same
    for every row of a query and so changes no gap. Each dot product or
    squared norm, summed in any order with or without FMA, is within
    ``γ_d = d·u / (1 - d·u)`` of exact relative to the sum of its terms'
    magnitudes, and each addition adds at most ``u`` of its operands'
    magnitudes, which all stay below ``M = (|q| + |t|)²``. So the brute
    force is within ``(d + 3)·u·M`` of exact and the shared search within
    ``(d + 2)·u·M``; with ``M <= 2(|q|² + max|t|²)``, a shared-search gap
    above the returned ``8(d + 3)·u·(|q|² + max|t|²)`` means the exact
    and the brute-force gaps have the same sign. ``2⁻¹⁰⁰⁰`` covers
    gradual underflow.
    """
    d = feats.shape[1]
    q_sq = np.einsum("ij,ij->i", feats, feats)
    return (8.0 * (d + 3) * _UNIT_ROUNDOFF) * (q_sq + max_sq_norm) + 2.0**-1000


class SourceIndex:
    """The pair models of one source camera, indexed for a shared search.

    Holds only pairs whose classifier is an unweighted
    :class:`KNNClassifier` and whose regressor, if any, is a weighted
    :class:`KNNRegressor`, all with byte-identical scaled training rows,
    scaler and classifier ``k``. ``collect_association_dataset`` gives
    every pair of a source camera the same rows, so on the simulated rigs
    that is every pair.

    Fitting finds the unique training rows (``rep``: the first source
    row of each; ``dup``: how many rows it stands for) and marks a unique
    row ``mixed`` when its duplicates disagree on some target's label or
    regression target. :meth:`prepare` derives the search arrays from
    those and the models; pickles leave them out, so artifact and
    checkpoint files grow only by the row map.
    """

    _DERIVED = ("basis", "norms", "counts", "rows")

    def __init__(self, source: int, models: Sequence[PairModel]) -> None:
        ref = models[0].classifier
        assert isinstance(ref, KNNClassifier) and ref._x is not None
        x = ref._x
        n, d = x.shape
        rows = np.ascontiguousarray(x).view(np.dtype((np.void, d * x.itemsize)))
        _, rep, inverse, dup = np.unique(
            rows.ravel(), return_index=True, return_inverse=True,
            return_counts=True,
        )
        self.source = source
        self.models = {model.pair[1]: model for model in models}
        # Search model 0 is the classifiers, 1 + i the i-th regressor.
        self.column = {model.pair[1]: 1 + col for col, model in enumerate(models)}
        self.rep = rep.astype(np.int32)
        self.dup = dup.astype(np.int32)
        # Rows of one unique row next to each other, in source-row order.
        order = np.argsort(inverse, kind="stable")
        group = inverse[order]
        differs = np.zeros(n - 1, dtype=bool)
        for model in models:
            assert model.classifier is not None
            visible = model.classifier._y == 1.0
            key = visible[order]
            differs |= key[1:] != key[:-1]
            if model.regressor is not None:
                targets = np.zeros((n, model.regressor._y.shape[1]))
                targets[visible] = model.regressor._y
                key = targets.view(np.dtype((np.void, targets.shape[1] * 8)))
                key = key.ravel()[order]
                differs |= key[1:] != key[:-1]
        mixed = group[1:][(group[1:] == group[:-1]) & differs]
        self.mixed = np.append(np.bincount(mixed, minlength=len(rep)) > 0, False)
        self.prepare()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._DERIVED:
            state[name] = None
        return state

    def prepare(self) -> None:
        """Derive the search arrays: after fit, and on first use after a load.

        ``basis``/``norms`` give every unique row's search distance, plus
        one more row at infinite distance that ends every search list.
        Per search model, ``counts`` holds how many of its training rows
        each unique row stands for (none when a regressor's target does
        not see it), ``rows`` the model's row for it, and ``k`` the
        model's neighbour count. ``rows[0]`` is the source row, so a
        gather from the classifiers' ``_x`` gives any model's features.
        """
        models = list(self.models.values())
        ref = models[0].classifier
        assert isinstance(ref, KNNClassifier) and ref._x is not None
        unique = ref._x[self.rep]
        m, d = unique.shape
        norms = np.sum(unique**2, axis=1)
        self.max_sq_norm = float(norms.max())
        self.big = len(ref._x) + 1  # more rows than any k
        self.basis = np.zeros((d, m + 1))
        self.basis[:, :m] = unique.T * -2.0
        self.norms = np.append(norms, np.inf)
        self.counts = np.zeros((1 + len(models), m + 1), dtype=np.int32)
        self.rows = np.zeros((1 + len(models), m + 1), dtype=np.int32)
        self.k = np.zeros(1 + len(models), dtype=np.int64)
        self.counts[0, :m] = self.dup
        self.rows[0, :m] = self.rep
        self.k[0] = min(ref.k, len(ref._x))
        for col, model in enumerate(models, start=1):
            reg = model.regressor
            if reg is None:
                continue
            assert model.classifier is not None and reg._y is not None
            visible = model.classifier._y == 1.0
            self.counts[col, :m] = np.where(visible[self.rep], self.dup, 0)
            self.rows[col, :m] = (np.cumsum(visible) - 1)[self.rep]
            self.k[col] = min(reg.k, len(reg._y))

    def predict(
        self, corners: np.ndarray, readers: Sequence[int], threshold: float
    ) -> Optional[Dict[int, Prediction]]:
        """The ``readers`` targets' predictions from one shared pass.

        One neighbour search serves every reader; one vote gives every
        reader's visibility and one distance-weighted regression every
        regressor's targets, each stacked over the readers. A reader whose
        visible rows are not all certified regresses them with its own
        search. Returns ``{target: (idx, boxes)}`` as
        :meth:`PairModel.predict_visible_boxes` would, or None when the
        classifier lists are not all certified or the regressors' ``k``
        differ: then every reader takes its per-pair path.
        """
        if self.basis is None:
            self.prepare()
        models = [self.models[t] for t in readers]
        regressed = [pos for pos, m in enumerate(models) if m.regressor is not None]
        cols = np.asarray([0] + [self.column[readers[pos]] for pos in regressed])
        k = self.k[cols]
        if len(set(k[1:].tolist())) > 1:
            return None
        feats = models[0]._scaled_corners(corners)
        ok, near = self._search(feats, cols, k)
        if not ok[0].all():
            return None
        classifiers = [m.classifier for m in models]
        regressors = [models[pos].regressor for pos in regressed]
        # Unweighted votes are sums of 0/1, exact in any order.
        src = self.rows[0][near[0, :, : k[0]]]
        votes = np.stack([clf._y[src] for clf in classifiers])
        visible = votes.mean(axis=2) >= threshold
        out = dict.fromkeys(readers, NO_BOXES)
        if not regressed:
            return out
        # KNNRegressor.regress over a (regressors, queries, k, .) gather,
        # with its expression grouping. Its sums run over axes shorter
        # than 8, which numpy adds in order, so every row is bit-identical.
        near = near[1:, :, : k[1]]
        own = self.rows[cols[1:, None, None], near]
        x = classifiers[0]._x[self.rows[0][near]]
        y = np.stack([reg._y[own[i]] for i, reg in enumerate(regressors)])
        weights = 1.0 / (np.linalg.norm(feats[:, None, :] - x, axis=3) + 1e-9)
        boxes = target_corners(
            (y * weights[..., None]).sum(axis=2) / weights.sum(axis=2)[..., None]
        )
        for i, pos in enumerate(regressed):
            idx = np.flatnonzero(visible[pos])
            if not len(idx):
                continue
            if ok[1 + i, idx].all():
                out[readers[pos]] = idx, boxes[i, idx]
                continue
            cand = feats if len(idx) == len(feats) else feats[idx]
            out[readers[pos]] = idx, target_corners(regressors[i].predict(cand))
        return out

    def _search(
        self, feats: np.ndarray, cols: np.ndarray, k: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One neighbour search for the search models ``cols``.

        A single product and ``argpartition`` list each query's
        ``SHARED_DEPTH`` nearest unique rows, nearest first. The last
        listed row stands for every row past the list, as does a
        ``mixed`` row: neither may be selected. A model's neighbours are
        then the first ``k`` of its training rows in the list, counted
        with multiplicity: the same list for every classifier, and for a
        regressor only the rows visible on its target. A query's list is
        certified for a model when every gap between consecutive listed
        distances exceeds :func:`distance_tolerance` and the model's
        ``k`` rows come before the first row that may not be selected:
        its own brute-force search then selects rows of the same values
        in the same order, and which duplicates it takes does not matter.

        Returns ``ok`` (models, queries), whether each list is certified,
        and ``near`` (models, queries, max k), the unique rows selected.
        """
        rows = _row_index(len(feats))
        dist = feats @ self.basis
        dist += self.norms
        depth = min(SHARED_DEPTH, dist.shape[1])
        near = np.argpartition(dist, depth - 1, axis=1)[:, :depth]
        near_dist = dist[rows, near]
        order = np.argsort(near_dist, axis=1)
        near = near[rows, order]
        near_dist = near_dist[rows, order]
        tol = distance_tolerance(feats, self.max_sq_norm)[:, None]
        certified = (near_dist[:, 1:] - near_dist[:, :-1] > tol).all(axis=1)
        stop = self.mixed[near]
        stop[:, -1] = True
        counts = np.where(stop, self.big, self.counts[cols[:, None, None], near])
        cum = np.cumsum(counts, axis=2)
        last = (cum >= k[:, None, None]).argmax(axis=2)
        ok = certified & (last < stop.argmax(axis=1))
        slot_pos = (cum[:, :, None, :] > np.arange(k.max())[:, None]).argmax(axis=3)
        return ok, near[rows, slot_pos]


def _shares_rows(ref: PairModel, model: PairModel) -> bool:
    """Can ``model`` join the source index whose first member is ``ref``?"""
    a, b = ref.classifier, model.classifier
    assert isinstance(a, KNNClassifier) and isinstance(b, KNNClassifier)
    assert ref.feature_scaler is not None and model.feature_scaler is not None
    return (
        a.k == b.k
        and a._x is not None and b._x is not None
        and a._x.tobytes() == b._x.tobytes()
        and ref.feature_scaler.mean_.tobytes() == model.feature_scaler.mean_.tobytes()
        and ref.feature_scaler.scale_.tobytes()
        == model.feature_scaler.scale_.tobytes()
    )


def _indexable(model: PairModel) -> bool:
    """KNN pair the shared pass mirrors, with its visible rows as regressor rows.

    The shared pass mirrors unweighted votes and weighted regressions
    only; pairs with the other weightings keep their per-pair path.
    """
    clf, reg = model.classifier, model.regressor
    if not isinstance(clf, KNNClassifier) or clf._x is None or clf.weighted:
        return False
    if model.feature_scaler is None or model.constant_label is not None:
        return False
    if reg is None:
        return True
    if not isinstance(reg, KNNRegressor) or reg._x is None or reg._y is None:
        return False
    if not reg.weighted:
        return False
    assert clf._y is not None
    return reg._x.tobytes() == clf._x[clf._y == 1.0].tobytes()


def build_source_indexes(
    models: Dict[PairKey, PairModel]
) -> Dict[int, SourceIndex]:
    """A :class:`SourceIndex` per source camera with two or more KNN pairs."""
    by_source: Dict[int, List[PairModel]] = {}
    for (source, _), model in sorted(models.items()):
        if not _indexable(model):
            continue
        members = by_source.setdefault(source, [])
        if not members or _shares_rows(members[0], model):
            members.append(model)
    return {
        source: SourceIndex(source, members)
        for source, members in by_source.items()
        if len(members) >= 2
    }
