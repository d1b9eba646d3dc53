"""Per-camera-pair visibility classification and location regression.

Implements the first two steps of the paper's association procedure
(Section II-C): a classifier decides whether a box seen on camera ``i``
also appears on camera ``i'``; when positive, a regressor predicts its
box on ``i'``. Models are pluggable so the Figure 10/11 baselines reuse
the same machinery.

The matcher asks every ordered pair ``(i, i')`` about the same boxes of
camera ``i``, and all of ``i``'s pair classifiers hold the same training
rows. :class:`SourceIndex` keeps what those pairs share, and
:class:`SourceStack` pads every source's index to one shape, so one pass
per key frame (:meth:`PairwiseAssociator.predict_pairs`) serves every
pair of every source camera with one neighbour search, one vote and one
regression. A floating-point certificate proves each pair's derived
neighbours equal its own brute-force search, or sends that pair down the
brute-force path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

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
    centre = targets[..., :2]
    half = np.maximum(targets[..., 2:4], 2.0) / 2.0
    corners = np.empty(targets.shape[:-1] + (4,))
    np.subtract(centre, half, out=corners[..., :2])
    np.add(centre, half, out=corners[..., 2:])
    return corners


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
        search. It is also the oracle of the key-frame pass,
        :meth:`SourceStack.predict`.
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
        return self.feature_scaler.transform(_feature_rows(corners))


def _feature_rows(corners: np.ndarray) -> np.ndarray:
    """Unscaled ``box_features`` of an ``(n, 4)`` corner array.

    Every expression mirrors box_features/as_xywh exactly (np.maximum is
    the same exact selection as max), so rows are bit-identical.
    """
    raw = np.empty((len(corners), 5), dtype=float)
    np.add(corners[:, :2], corners[:, 2:], out=raw[:, :2])
    raw[:, :2] /= 2.0  # cx, cy
    np.subtract(corners[:, 2:], corners[:, :2], out=raw[:, 2:4])  # w, h
    np.divide(raw[:, 2], np.maximum(raw[:, 3], 1e-6), out=raw[:, 4])
    return raw


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
        # Derived from ``_sources`` on first use; pickles leave it out.
        self._stack: Optional[SourceStack] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_stack", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stack = None

    def fit(self, dataset: AssociationDataset) -> "PairwiseAssociator":
        """Fit one classifier/regressor pair per ordered camera pair."""
        self._fit_token += 1
        self._models = {
            key: self._fit_pair(pair_ds) for key, pair_ds in dataset.pairs.items()
        }
        self._sources = build_source_indexes(self._models)
        self._stack = None
        return self

    def model(self, source: int, target: int) -> Optional[PairModel]:
        """The fitted model for the ordered pair, or None if untrained."""
        return self._models.get((source, target))

    def predict_pairs(
        self,
        corners: Mapping[int, np.ndarray],
        pairs: Sequence[PairKey],
        threshold: float = 0.5,
    ) -> List[Prediction]:
        """Every pair's :meth:`PairModel.predict_visible_boxes`, in one pass.

        ``corners`` maps each camera to its boxes as an ``(n, 4)`` array.
        Returns one ``(idx, boxes)`` per ``(source, target)`` pair, in
        order, for the source's boxes; an untrained pair predicts none.
        The pairs whose models are in their source's :class:`SourceIndex`
        get theirs from one :meth:`SourceStack.predict` over all their
        sources; the others, and the readers of a source that pass
        declines, from their own pair model. The outputs are the same
        either way.
        """
        readers: Dict[int, List[int]] = {}
        for source, target in pairs:
            index = self._sources.get(source)
            if index is not None and target in index.column and len(corners[source]):
                readers.setdefault(source, []).append(target)
        shared: Dict[PairKey, Prediction] = {}
        if readers:
            if self._stack is None:
                self._stack = SourceStack(list(self._sources.values()))
            shared = self._stack.predict(corners, readers, threshold)
        out = []
        for pair in pairs:
            prediction = shared.get(pair)
            if prediction is None:
                model = self._models.get(pair)
                prediction = (
                    NO_BOXES if model is None
                    else model.predict_visible_boxes(corners[pair[0]], threshold)
                )
            out.append(prediction)
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
# Shared neighbour search

#: Unique training rows the shared search lists per query, nearest
#: first; the last one only bounds the rows past the list. The
#: classifiers need their 7 neighbours and the regressors 5 rows visible
#: on their target inside the list. Fallback share over 40 S1 key frames
#: at seeds 0 and 7919 (1,440 pair calls): 4.0% at K = 8, 0.3% at 12,
#: none from 16 up; 24 leaves headroom at no measurable cost.
SHARED_DEPTH = 24

_UNIT_ROUNDOFF = 2.0**-53


def distance_tolerance(
    feats: np.ndarray, max_sq_norm: Union[float, np.ndarray]
) -> np.ndarray:
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
    gradual underflow. ``max_sq_norm`` is ``max|t|²`` over the rows
    searched, one for every query or one per query row.
    """
    d = feats.shape[1]
    q_sq = np.einsum("ij,ij->i", feats, feats)
    return (8.0 * (d + 3) * _UNIT_ROUNDOFF) * (q_sq + max_sq_norm) + 2.0**-1000


class SourceIndex:
    """The pair models of one source camera that can share a search.

    Holds only pairs whose classifier is an unweighted
    :class:`KNNClassifier` and whose regressor, if any, is a weighted
    :class:`KNNRegressor`, all with byte-identical scaled training rows,
    scaler and classifier ``k``. ``collect_association_dataset`` gives
    every pair of a source camera the same rows, so on the simulated rigs
    that is every pair.

    Fitting finds the unique training rows (``rep``: the first source
    row of each; ``dup``: how many rows it stands for) and marks a unique
    row ``mixed`` when its duplicates disagree on some target's label or
    regression target. That is all a pickle holds besides the models:
    :class:`SourceStack` derives the search arrays from it.
    """

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
        self.mixed = np.bincount(mixed, minlength=len(rep)) > 0


class SourceStack:
    """Every source index's search arrays, padded to one shape.

    Slot ``s`` holds ``indexes[s]``. Its ``m`` unique rows fill columns
    ``0 .. m - 1`` of every array. The columns from ``m`` on, at least
    one, lie at infinite distance and may not be selected, so a source
    with fewer rows than the widest searches as if it were alone.

    Per slot, ``basis`` and ``norms`` give every unique row's search
    distance, ``unique`` its features, ``mean``/``scale`` the source's
    feature scaler and ``max_sq_norm`` its largest squared row norm. Row
    ``s * n_models + c`` of ``counts``, ``labels`` and ``targets`` is the
    slot's search model ``c`` (0: the classifiers; ``1 + i``: the
    ``i``-th pair's regressor, as in :attr:`SourceIndex.column`).
    ``counts`` holds how many of the model's training rows each unique
    row stands for (none when a regressor's target does not see it), or
    ``big``, more than any ``k``, for a row that may not be selected: a
    padding or ``mixed`` row. ``labels`` and ``targets`` hold each unique
    row's label and regression target on the model's target camera.
    ``readers[s]`` maps each target of the slot to its model row, its
    regressor and that regressor's ``k``, and ``k_cls[s]`` is the
    classifiers' ``k``.

    Built from the indexes on first use; pickles leave it out.
    """

    def __init__(self, indexes: Sequence[SourceIndex]) -> None:
        self.indexes = list(indexes)
        self.slot = {index.source: s for s, index in enumerate(self.indexes)}
        refs = [_reference(index) for index in self.indexes]
        n_slots, d = len(refs), refs[0]._x.shape[1]
        width = max(len(index.rep) for index in self.indexes) + 1
        n_models = 1 + max(len(index.models) for index in self.indexes)
        self.big = max(len(ref._x) for ref in refs) + 1
        self.mean = np.zeros((n_slots, d))
        self.scale = np.ones((n_slots, d))
        self.max_sq_norm = np.zeros(n_slots)
        self.basis = np.zeros((n_slots, d, width))
        self.norms = np.full((n_slots, width), np.inf)
        self.unique = np.zeros((n_slots, width, d))
        counts = np.zeros((n_slots, n_models, width), dtype=np.int32)
        labels = np.zeros((n_slots, n_models, width))
        targets = np.zeros((n_slots, n_models, width, 4))
        self.readers: List[Dict[int, Tuple[int, Optional[Regressor], int]]] = []
        self.k_cls: List[int] = []
        for s, (index, ref) in enumerate(zip(self.indexes, refs)):
            m = len(index.rep)
            scaler = next(iter(index.models.values())).feature_scaler
            assert scaler is not None
            self.mean[s], self.scale[s] = scaler.mean_, scaler.scale_
            unique = ref._x[index.rep]
            norms = np.sum(unique**2, axis=1)
            self.max_sq_norm[s] = norms.max()
            self.basis[s, :, :m] = unique.T * -2.0
            self.norms[s, :m] = norms
            self.unique[s, :m] = unique
            counts[s, 0, :m] = index.dup
            self.k_cls.append(min(ref.k, len(ref._x)))
            slot_readers = {}
            for target, col in index.column.items():
                model = index.models[target]
                assert model.classifier is not None
                visible = model.classifier._y == 1.0
                labels[s, col, :m] = model.classifier._y[index.rep]
                reg = model.regressor
                slot_readers[target] = (s * n_models + col, reg, 0)
                if reg is None:
                    continue
                assert reg._y is not None
                seen = visible[index.rep]
                counts[s, col, :m] = np.where(seen, index.dup, 0)
                own = (np.cumsum(visible) - 1)[index.rep]
                targets[s, col, :m][seen] = reg._y[own[seen]]
                slot_readers[target] = (s * n_models + col, reg, min(reg.k, len(reg._y)))
            self.readers.append(slot_readers)
            # Indexes pickled with a flag for their infinite row carry
            # one more than ``m``.
            counts[s, :, :m][:, index.mixed[:m]] = self.big
            counts[s, :, m:] = self.big
        self.n_models = n_models
        self.counts = counts.reshape(n_slots * n_models, width)
        # Only a source with fewer unique rows than a list can list a row
        # at infinite distance before the list's last.
        self.short = min(len(index.rep) for index in self.indexes) < SHARED_DEPTH
        self.labels = labels.reshape(n_slots * n_models, width)
        self.targets = targets.reshape(n_slots * n_models, width, 4)

    def predict(
        self,
        corners: Mapping[int, np.ndarray],
        readers: Mapping[int, Sequence[int]],
        threshold: float,
    ) -> Dict[PairKey, Prediction]:
        """Every reader's prediction from one pass over all their sources.

        ``readers`` maps each source camera with boxes (``corners[source]``,
        an ``(n, 4)`` array) to the targets that read its index. One
        neighbour search lists the nearest unique rows of every query of
        every source, one vote gives every reader's visibility, and one
        distance-weighted regression the boxes of every row a reader
        classified visible. Returns ``{(source, target): (idx, boxes)}``
        as :meth:`PairModel.predict_visible_boxes` would, for the readers
        of every source that answers. A source joins the pass when its
        classifiers' ``k`` and its readers' regressors' ``k`` equal those
        of the first source that joined, and answers when every
        classifier list of its queries is certified; the readers of any
        other source take their per-pair path. A reader whose visible
        rows are not all certified for its regressor regresses them with
        its own search.
        """
        # Query rows run source by source. An item is a (query row, search
        # model) whose neighbours are selected: first every regressor's
        # items, then one classifier item per query row. A vote is a
        # (query row, reader), with the reader's model row and its
        # regressor's item, or -1.
        plan = []  # per reader: source, target, first query row, first vote, regressor
        spans: List[Tuple[int, range, int]] = []  # per source: slot, query rows, source
        item_q: List[int] = []
        item_row: List[int] = []
        vote_q: List[int] = []
        vote_row: List[int] = []
        vote_item: List[int] = []
        vote_first: List[int] = []
        k_cls = k_reg = 0
        for source, targets in readers.items():
            slot = self.slot[source]
            entries = [self.readers[slot][t] for t in targets]
            ks = {k for _, reg, k in entries if reg is not None}
            if len(ks) > 1 or (k_cls and self.k_cls[slot] != k_cls):
                continue
            if ks and k_reg and ks != {k_reg}:
                continue
            k_cls = self.k_cls[slot]
            k_reg = ks.pop() if ks else k_reg
            start = spans[-1][1].stop if spans else 0
            rows = range(start, start + len(corners[source]))
            spans.append((slot, rows, source))
            for target, (row, regressor, _) in zip(targets, entries):
                plan.append((source, target, start, len(vote_q), regressor))
                vote_first.extend([len(vote_q)] * len(rows))
                vote_q.extend(rows)
                vote_row.extend([row] * len(rows))
                if regressor is None:
                    vote_item.extend([-1] * len(rows))
                    continue
                vote_item.extend(range(len(item_q), len(item_q) + len(rows)))
                item_q.extend(rows)
                item_row.extend([row] * len(rows))
        if not plan:
            return {}
        n_reg = len(item_q)
        n_queries = spans[-1][1].stop
        qslot = np.repeat([slot for slot, _, _ in spans], [len(r) for _, r, _ in spans])
        raw = _feature_rows(np.concatenate([corners[src] for _, _, src in spans]))
        feats = (raw - self.mean[qslot]) / self.scale[qslot]
        near, certified = self._search(feats, qslot, spans)
        iq = np.asarray(item_q + list(range(n_queries)), dtype=np.intp)
        irow = np.concatenate(
            (np.asarray(item_row, dtype=np.intp), qslot * self.n_models)
        )
        ok, chosen = self._select(
            near[iq], certified[iq], irow,
            np.repeat([k_reg, k_cls], [n_reg, n_queries])[:, None],
            max(k_cls, k_reg),
        )
        classified = ok[n_reg:]
        declined = set() if classified.all() else set(qslot[~classified].tolist())
        vq = np.asarray(vote_q, dtype=np.intp) + n_reg
        labels = self.labels[
            np.asarray(vote_row, dtype=np.intp)[:, None], chosen[vq, :k_cls]
        ]
        visible = labels.mean(axis=1) >= threshold
        vote_items = np.asarray(vote_item, dtype=np.intp)
        items = vote_items[visible & (vote_items >= 0)]
        boxes = self._regress(
            feats[iq[items]], irow[items], qslot[iq[items]], chosen[items, :k_reg]
        )
        items_ok = ok[items].tolist()
        # Each reader's visible query rows, as views of one array.
        hits = np.flatnonzero(visible)
        firsts = [first for _, _, _, first, _ in plan] + [len(visible)]
        bounds = np.searchsorted(hits, firsts).tolist()
        hits -= np.asarray(vote_first, dtype=np.intp)[hits]
        out: Dict[PairKey, Prediction] = {}
        done = 0  # regressed rows of the readers before this one
        for r, (source, target, start, _, regressor) in enumerate(plan):
            idx = hits[bounds[r] : bounds[r + 1]]
            rows = done, done + (len(idx) if regressor is not None else 0)
            done = rows[1]
            if self.slot[source] in declined:
                continue
            if not len(idx) or regressor is None:
                out[source, target] = NO_BOXES
            elif all(items_ok[rows[0] : rows[1]]):
                out[source, target] = idx, boxes[rows[0] : rows[1]]
            else:
                cand = feats[start : start + len(corners[source])][idx]
                out[source, target] = idx, target_corners(regressor.predict(cand))
        return out

    def _search(
        self, feats: np.ndarray, qslot: np.ndarray, spans: Sequence[tuple]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One neighbour search for every query row of every source.

        One product per source, then a single ``argpartition`` and sort,
        list each query's ``SHARED_DEPTH`` nearest unique rows of its
        source, nearest first. The last listed row stands for every row
        past the list, so it may not be selected, nor may a ``mixed`` row.
        A model's neighbours are then the first ``k`` of its training
        rows in the list, counted with multiplicity: the same list for
        every classifier, and for a regressor only the rows visible on
        its target. A query's list is certified when every gap between
        consecutive listed distances exceeds :func:`distance_tolerance`,
        the rows at infinite distance aside: for a model whose ``k`` rows
        come before the first row that may not be selected, its own
        brute-force search then selects rows of the same values in the
        same order, and which duplicates it takes does not matter.

        Returns the listed rows ``(queries, depth)`` and whether each
        list is certified.
        """
        dist = np.empty((len(feats), self.norms.shape[1]))
        for slot, rows, _ in spans:
            part = dist[rows.start : rows.stop]
            np.matmul(feats[rows.start : rows.stop], self.basis[slot], out=part)
            part += self.norms[slot]
        rows = _row_index(len(feats))
        depth = min(SHARED_DEPTH, dist.shape[1])
        near = np.argpartition(dist, depth - 1, axis=1)[:, :depth]
        near_dist = dist[rows, near]
        order = np.argsort(near_dist, axis=1)
        near = near[rows, order]
        near_dist = near_dist[rows, order]
        tol = distance_tolerance(feats, self.max_sq_norm[qslot])[:, None]
        with np.errstate(invalid="ignore"):  # inf - inf past a short source
            apart = near_dist[:, 1:] - near_dist[:, :-1] > tol
        if self.short:
            apart |= near_dist[:, :-1] == np.inf
        return near, apart.all(axis=1)

    def _select(
        self,
        listed: np.ndarray,
        certified: np.ndarray,
        model_rows: np.ndarray,
        k: np.ndarray,
        k_max: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each item's neighbours: the first ``k`` of its model's training
        rows in its ``listed`` rows, counted with multiplicity.

        A list's last row stands for every row past it, so it may not be
        selected, nor may a row that counts ``big``. Returns whether each
        item's ``k`` rows are certified, and its first ``k_max`` rows.
        """
        counts = self.counts[model_rows[:, None], listed]
        counts[:, -1] = self.big
        cum = np.cumsum(counts, axis=1)
        ok = certified & ((cum >= k) & (cum < self.big)).any(axis=1)
        # Slot j is the listed row whose count first takes the item past
        # j; the capped steps of every item add up to k_max.
        reach = np.minimum(cum, k_max)
        steps = np.empty_like(reach)
        steps[:, 0] = reach[:, 0]
        np.subtract(reach[:, 1:], reach[:, :-1], out=steps[:, 1:])
        return ok, np.repeat(listed.ravel(), steps.ravel()).reshape(len(listed), k_max)

    def _regress(
        self,
        feats: np.ndarray,
        model_rows: np.ndarray,
        slots: np.ndarray,
        near: np.ndarray,
    ) -> np.ndarray:
        """Boxes of regressor items from their query features and neighbours.

        ``KNNRegressor.regress`` over a ``(items, k, .)`` gather of the
        unique rows' features and each model's targets, with its
        expression grouping and axis layout: every row is bit-identical
        to the regressor's own.
        """
        x = self.unique[slots[:, None], near]
        y = self.targets[model_rows[:, None], near]
        weights = 1.0 / (np.linalg.norm(feats[:, None, :] - x, axis=2) + 1e-9)
        return target_corners(
            (y * weights[:, :, None]).sum(axis=1) / weights.sum(axis=1)[:, None]
        )


def _reference(index: SourceIndex) -> KNNClassifier:
    """The classifier whose training rows every member of ``index`` shares."""
    ref = next(iter(index.models.values())).classifier
    assert isinstance(ref, KNNClassifier) and ref._x is not None
    return ref


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
