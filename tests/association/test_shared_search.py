"""The shared per-source neighbour search equals the per-pair searches.

Every output the shared path produces is compared with the brute-force
per-pair path (``_k_nearest`` inside each model) by ``tobytes()``: the
classifier probabilities, the regressed targets and the boxes the
matcher sees.
"""

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.association import pairwise
from repro.association.pairwise import PairwiseAssociator, SharedQueries
from repro.association.training import AssociationDataset
from repro.geometry.box import BBox
from repro.ml.knn import KNNClassifier, KNNRegressor
from repro.runtime.pipeline import Pipeline, PipelineConfig, train_models
from repro.scenarios.aic21 import get_scenario


def _nudge(value, ulps):
    """``value`` moved ``ulps`` units in the last place (negative: down)."""
    step = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, step))
    return value


def _fit(dataset, k_cls=7, k_reg=5):
    return PairwiseAssociator(
        partial(KNNClassifier, k=k_cls),
        partial(KNNRegressor, k=k_reg, weighted=True),
    ).fit(dataset)


def _assert_shared_equals_per_pair(assoc, boxes, targets):
    """Every reader's outputs through SharedQueries equal its own search's."""
    shared = assoc.queries(0, list(boxes), targets)
    for target in targets:
        model = assoc.model(0, target)
        if model is None:
            continue
        got = model.predict_visible_boxes(shared)
        want = model.predict_visible_boxes(list(boxes))
        assert got[0] == want[0]
        assert [b and b.as_tuple() for b in got[1]] == [
            b and b.as_tuple() for b in want[1]
        ]
        search = shared.search(model) if isinstance(shared, SharedQueries) else None
        if search is None:
            continue
        feats = model._scaled_features_batch(list(boxes))
        assert search.feats.tobytes() == feats.tobytes()
        proba = search.vote(model.classifier)
        assert proba.tobytes() == model.classifier.predict_proba(feats).tobytes()
        if model.regressor is not None:
            rows = list(range(len(boxes)))
            reg = search.regress(model.regressor, feats, rows)
            assert reg.tobytes() == model.regressor.predict(feats).tobytes()


# A coarse grid makes distinct rows at equal distance from a query
# common; free coordinates make every gap generic.
_grid = st.integers(0, 6).map(lambda v: 100.0 + 10.0 * v)
_free = st.floats(60.0, 200.0, allow_nan=False, allow_infinity=False)
_size = st.sampled_from([20.0, 30.0, 40.0])


@st.composite
def training_sets(draw):
    """Source rows with duplicates, ulp-nudged copies and 2-3 targets."""
    n_targets = draw(st.integers(2, 3))
    # Each hazard is drawn for a third of the examples, so about a
    # third have none and mostly take the certified path.
    coord = draw(st.sampled_from([_grid, _free, _free]))
    bases = draw(st.lists(st.tuples(coord, coord, _size, _size), min_size=1, max_size=10))
    consistent = draw(st.sampled_from([False, True, True]))
    nudged = draw(st.sampled_from([True, False, False]))
    nudges = st.sampled_from([0, 0, 1, -2, 4]) if nudged else st.just(0)
    ds = AssociationDataset()
    for cx, cy, w, h in bases:
        copies = draw(st.integers(1, 4))
        group_labels = [draw(st.booleans()) for _ in range(n_targets)]
        for _ in range(copies):
            src = BBox.from_xywh(_nudge(cx, draw(nudges)), cy, w, h)
            for t in range(1, n_targets + 1):
                visible = (
                    group_labels[t - 1] if consistent else draw(st.booleans())
                )
                shift = 0.0 if consistent else draw(st.sampled_from([0.0, 3.0]))
                dst = BBox.from_xywh(cx + 50.0 * t + shift, cy, w, h)
                ds.pair(0, t).add(src, dst if visible else None)
    return ds, n_targets, bases


_query_coord = st.one_of(st.integers(0, 12).map(lambda v: 100.0 + 5.0 * v), _free)


@settings(max_examples=300, deadline=None)
@given(
    data=training_sets(),
    k_cls=st.integers(1, 9),
    k_reg=st.integers(1, 6),
    queries=st.lists(
        st.tuples(_query_coord, _query_coord, _size, _size), min_size=1, max_size=6
    ),
    from_training=st.integers(0, 3),
)
def test_shared_path_is_bit_identical(data, k_cls, k_reg, queries, from_training):
    """Grid midpoints (equal distances), free points, and training rows."""
    ds, n_targets, bases = data
    assoc = _fit(ds, k_cls, k_reg)
    boxes = [BBox.from_xywh(*q) for q in queries]
    boxes += [BBox.from_xywh(*b) for b in bases[:from_training]]
    _assert_shared_equals_per_pair(assoc, boxes, list(range(1, n_targets + 1)))
    calls = assoc.shared_calls()
    event("some calls certified" if calls["certified"] else "none certified")
    event("some calls fell back" if calls["fallback"] else "none fell back")


def _generic_dataset(n=400, targets=(1, 2, 3), seed=0):
    """Random boxes, about a third of them duplicated, seen by ``targets``."""
    rng = np.random.default_rng(seed)
    ds = AssociationDataset()
    for _ in range(n):
        src = BBox.from_xywh(
            rng.uniform(0, 1000), rng.uniform(100, 600),
            rng.uniform(30, 80), rng.uniform(20, 60),
        )
        for _ in range(int(rng.integers(1, 3))):
            for t in targets:
                visible = src.x1 < 300.0 * t
                dst = src.translate(40.0 * t, -10.0) if visible else None
                ds.pair(0, t).add(src, dst)
    return ds


def _generic_queries(n=11, seed=1):
    rng = np.random.default_rng(seed)
    return [
        BBox.from_xywh(
            rng.uniform(0, 1000), rng.uniform(100, 600),
            rng.uniform(30, 80), rng.uniform(20, 60),
        )
        for _ in range(n)
    ]


class TestCertificate:
    def test_generic_queries_take_the_certified_path(self):
        assoc = _fit(_generic_dataset())
        shared = assoc.queries(0, _generic_queries(), [1, 2, 3])
        for t in (1, 2, 3):
            assoc.model(0, t).predict_visible_boxes(shared)
        assert assoc.shared_calls() == {"certified": 6, "fallback": 0}
        _assert_shared_equals_per_pair(assoc, _generic_queries(), [1, 2, 3])

    def test_equal_distance_declines_and_falls_back(self):
        """Two distinct rows exactly as far from the query decide k=1."""
        ds = AssociationDataset()
        near_left = BBox.from_xywh(90.0, 300.0, 40.0, 30.0)
        near_right = BBox.from_xywh(110.0, 300.0, 40.0, 30.0)
        far = [BBox.from_xywh(500.0 + 37.0 * i, 420.0, 40.0, 30.0) for i in range(6)]
        for t in (1, 2):
            ds.pair(0, t).add(near_left, near_left.translate(50.0, 0.0))
            ds.pair(0, t).add(near_right, None)
            for i, box in enumerate(far):
                ds.pair(0, t).add(box, box.translate(50.0, 0.0) if i % 2 else None)
        assoc = _fit(ds, k_cls=1, k_reg=1)
        query = BBox.from_xywh(100.0, 300.0, 40.0, 30.0)
        feats = assoc.model(0, 1)._scaled_features_batch([query])[0]
        rows = assoc.model(0, 1).classifier._x
        d_left, d_right = (float(np.sum((feats - rows[i]) ** 2)) for i in (0, 1))
        assert d_left == pytest.approx(d_right, rel=1e-12)
        _assert_shared_equals_per_pair(assoc, [query], [1, 2])
        assert assoc.shared_calls()["fallback"] > 0

    def test_mixed_duplicates_decline(self):
        """Duplicates with different labels must not be split by the search."""
        ds = AssociationDataset()
        box = BBox.from_xywh(100.0, 300.0, 40.0, 30.0)
        others = [BBox.from_xywh(400.0 + 23.0 * i, 350.0, 40.0, 30.0) for i in range(8)]
        for t in (1, 2):
            ds.pair(0, t).add(box, box.translate(50.0, 0.0))
            ds.pair(0, t).add(box, None)
            for i, other in enumerate(others):
                ds.pair(0, t).add(other, other.translate(50.0, 0.0) if i % 2 else None)
        assoc = _fit(ds, k_cls=1, k_reg=1)
        _assert_shared_equals_per_pair(assoc, [box], [1, 2])
        assert assoc.shared_calls()["fallback"] > 0

    def test_k_above_the_row_count(self):
        ds = AssociationDataset()
        src = BBox.from_xywh(100.0, 300.0, 40.0, 30.0)
        for t in (1, 2):
            ds.pair(0, t).add(src, src.translate(10.0, 0.0))
            ds.pair(0, t).add(src.translate(300.0, 0.0), None)
        assoc = _fit(ds)
        _assert_shared_equals_per_pair(assoc, _generic_queries(5), [1, 2])

    def test_tolerance_covers_float_error(self):
        """Distances computed two ways differ by far less than the tolerance."""
        rng = np.random.default_rng(3)
        train = rng.normal(0.0, 3.0, (300, 5))
        queries = rng.normal(0.0, 3.0, (20, 5))
        exact = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
        expanded = queries @ (train * -2.0).T
        expanded += np.sum(queries**2, axis=1)[:, None]
        expanded += np.sum(train**2, axis=1)
        tol = pairwise.distance_tolerance(queries, float(np.max(np.sum(train**2, axis=1))))
        assert np.all(np.abs(expanded - exact) < tol[:, None] / 2)


class TestSharingRule:
    def test_single_reader_keeps_the_per_pair_path(self):
        assoc = _fit(_generic_dataset())
        boxes = _generic_queries()
        assert assoc.queries(0, boxes, [2]) is boxes
        assert isinstance(assoc.queries(0, boxes, [1, 2]), SharedQueries)

    def test_constant_label_pairs_are_not_readers(self):
        ds = _generic_dataset(targets=(1, 2))
        src = BBox.from_xywh(100.0, 300.0, 40.0, 30.0)
        for box in [src] * 20:
            ds.pair(0, 3).add(box, None)
        assoc = _fit(ds)
        shared = assoc.queries(0, _generic_queries(), [1, 2, 3])
        assert isinstance(shared, SharedQueries)
        assert set(shared.slots) == {1, 2}
        assert shared.search(assoc.model(0, 3)) is None

    def test_search_runs_once_and_lazily(self, monkeypatch):
        assoc = _fit(_generic_dataset())
        runs = []
        original = pairwise._SharedSearch.__init__

        def counting(self, *args):
            runs.append(1)
            original(self, *args)

        monkeypatch.setattr(pairwise._SharedSearch, "__init__", counting)
        shared = assoc.queries(0, _generic_queries(), [1, 2, 3])
        assert runs == []
        for t in (1, 2, 3):
            assoc.model(0, t).predict_visible_boxes(shared)
        assert runs == [1]

    def test_unpickled_and_legacy_associators_share(self):
        assoc = _fit(_generic_dataset())
        loaded = pickle.loads(pickle.dumps(assoc))
        legacy = pickle.loads(pickle.dumps(assoc))
        del legacy._sources  # pickled before the index existed
        seen = []
        for each in (assoc, loaded, legacy):
            _assert_shared_equals_per_pair(each, _generic_queries(), [1, 2, 3])
            seen.append(each.shared_calls())
        assert seen[0]["certified"] > 0
        assert seen[0] == seen[1] == seen[2]


class TestRefit:
    def test_refit_drops_pairs_missing_from_the_new_dataset(self):
        """A re-fit must not keep serving the previous fit's pair models."""
        assoc = _fit(_generic_dataset(targets=(1, 2)))
        assert assoc.model(0, 2) is not None
        assoc.fit(_generic_dataset(targets=(1, 3), seed=1))
        assert assoc.model(0, 2) is None
        assert assoc.model(0, 3) is not None
        shared = assoc.queries(0, _generic_queries(), [1, 2, 3])
        assert set(shared.slots) == {1, 3}


def test_s1_key_frames_mostly_take_the_certified_path():
    """Guards the fast path: a certificate that always declines is still correct."""
    scenario = get_scenario("S1", seed=0)
    config = PipelineConfig(policy="balb", horizon=1, n_horizons=40, seed=0)
    trained = train_models(scenario, config)
    Pipeline(scenario, config, trained).run()
    calls = trained.associator.shared_calls()
    total = calls["certified"] + calls["fallback"]
    assert total >= 40 * 9
    assert calls["fallback"] <= 0.01 * total

