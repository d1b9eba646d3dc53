"""The key-frame association pass equals the per-pair path.

Every output of :meth:`PairwiseAssociator.predict_pairs` is compared
with each pair model's own :meth:`PairModel.predict_visible_boxes`,
whose classifier and regressor run their brute-force ``_k_nearest``
search, by ``tobytes()``: the visible rows and the predicted corners.
"""

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.association import pairwise
from repro.association.pairwise import NO_BOXES, PairwiseAssociator
from repro.association.training import AssociationDataset
from repro.geometry.box import BBox, corner_array
from repro.ml.knn import KNNClassifier, KNNRegressor
from repro.runtime.pipeline import Pipeline, PipelineConfig, train_models
from repro.scenarios.aic21 import get_scenario
from tests.association.search_counts import count_shared_calls, shared_calls


@pytest.fixture(autouse=True, scope="module")
def _count_shared_calls():
    with pytest.MonkeyPatch.context() as patch:
        count_shared_calls(patch)
        yield


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


def _assert_pairs_equal_per_pair(assoc, corners, pairs):
    """``predict_pairs`` gives every pair its per-pair prediction."""
    got = assoc.predict_pairs(corners, pairs)
    assert len(got) == len(pairs)
    for (source, target), (idx, predicted) in zip(pairs, got):
        model = assoc.model(source, target)
        want_idx, want = (
            NO_BOXES if model is None
            else model.predict_visible_boxes(corners[source])
        )
        assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes()
        assert predicted.shape == want.shape == (len(idx), 4)
        assert predicted.dtype == want.dtype and predicted.tobytes() == want.tobytes()


def _assert_source_equals_per_pair(assoc, boxes, targets):
    """Source 0's pairs get their per-pair predictions, as BBoxes too."""
    corners = corner_array(boxes)
    _assert_pairs_equal_per_pair(assoc, {0: corners}, [(0, t) for t in targets])
    for target in targets:
        model = assoc.model(0, target)
        want_idx, want = (
            NO_BOXES if model is None else model.predict_visible_boxes(corners)
        )
        # The per-pair path agrees with the BBox-level batch APIs.
        if model is not None and len(want_idx):
            visible = model.predict_visible_batch(boxes)
            if model.constant_label is None:
                assert np.flatnonzero(visible).tolist() == want_idx.tolist()
            rows = model.predict_boxes([boxes[i] for i in want_idx])
            assert [b.as_tuple() for b in rows] == [tuple(r) for r in want.tolist()]


def _predict(assoc, boxes, targets):
    """Source 0's predictions for ``targets``, from ``predict_pairs``."""
    return assoc.predict_pairs({0: corner_array(boxes)}, [(0, t) for t in targets])


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
    k_reg=st.sampled_from([1, 2, 3, 3, 3, 4, 5, 6]),
    queries=st.lists(
        st.tuples(_query_coord, _query_coord, _size, _size), min_size=1, max_size=6
    ),
    from_training=st.integers(0, 3),
    subset=st.integers(0, 7),
)
def test_shared_path_is_bit_identical(data, k_cls, k_reg, queries, from_training, subset):
    """Grid midpoints (equal distances), free points, and training rows.

    ``subset`` picks the targets asked, so single readers are covered.
    """
    ds, n_targets, bases = data
    assoc = _fit(ds, k_cls, k_reg)
    boxes = [BBox.from_xywh(*q) for q in queries]
    boxes += [BBox.from_xywh(*b) for b in bases[:from_training]]
    targets = [t for t in range(1, n_targets + 1) if subset >> (t - 1) & 1]
    targets = targets or [n_targets]
    _assert_source_equals_per_pair(assoc, boxes, targets)
    calls = shared_calls(assoc)
    event("single target" if len(targets) == 1 else "several targets")
    event("some calls certified" if calls["certified"] else "none certified")
    event("some calls fell back" if calls["fallback"] else "none fell back")


def _source_rows(ds, source, n_cams, kind, n_rows, rng):
    """Training rows of one source camera for its pairs with later cameras.

    ``generic`` rows certify; ``grid`` rows put distinct rows at equal
    distance from grid midpoints, and ``mixed`` duplicates disagree on
    their labels, so the certificate declines queries near them. Returns
    boxes that queries may repeat.
    """
    if kind == "grid":
        spots = [(100.0 + 10.0 * (i % 4), 300.0 + 10.0 * (i // 4)) for i in range(n_rows)]
        boxes = [BBox.from_xywh(x, y, 40.0, 30.0) for x, y in spots]
    else:
        boxes = [
            BBox.from_xywh(
                rng.uniform(0, 1000), rng.uniform(100, 600),
                rng.uniform(30, 80), rng.uniform(20, 60),
            )
            for _ in range(n_rows)
        ]
    edges = rng.uniform(200.0, 800.0, n_cams)
    for i, src in enumerate(boxes):
        copies = 2 if kind == "mixed" and i % 3 == 0 else 1
        for copy in range(copies):
            for target in range(source + 1, n_cams):
                visible = src.x1 + rng.normal(0.0, 80.0) < edges[target]
                if kind == "mixed" and copies == 2:
                    visible = copy == 0
                dst = src.translate(40.0 * target + rng.normal(0.0, 5.0), -10.0)
                ds.pair(source, target).add(src, dst if visible else None)
    return boxes


@st.composite
def key_frames(draw):
    """2-4 source cameras with rows of their own and their cameras' boxes.

    The sources differ in unique-row count, so the stack pads them. A
    camera may have no boxes, the last camera never has any (a target
    with no detections), and a source with few visible rows gets a
    smaller regressor ``k`` than the others.
    """
    n_sources = draw(st.integers(2, 4))
    n_cams = n_sources + 1 + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = AssociationDataset()
    corners = {}
    kinds = []
    for source in range(n_sources):
        kind = draw(st.sampled_from(["generic", "generic", "grid", "mixed"]))
        kinds.append(kind)
        rows = _source_rows(ds, source, n_cams, kind, draw(st.integers(3, 80)), rng)
        n_boxes = draw(st.integers(0, 7))
        boxes = _generic_queries(n_boxes, seed=int(rng.integers(1000)))
        if kind == "grid":
            boxes += [BBox.from_xywh(105.0, 305.0, 40.0, 30.0)] * draw(st.integers(0, 1))
        boxes += rows[: draw(st.integers(0, 2))]
        corners[source] = corner_array(boxes)
    for cam in range(n_sources, n_cams):
        corners[cam] = corner_array([])
    pairs = [
        (source, target)
        for source in range(n_sources)
        for target in range(source + 1, n_cams)
        if draw(st.integers(0, 4))
    ]
    return ds, corners, pairs, kinds


@settings(max_examples=150, deadline=None)
@given(frame=key_frames(), k_cls=st.sampled_from([3, 7]), k_reg=st.sampled_from([3, 5]))
def test_key_frames_of_several_sources_are_bit_identical(frame, k_cls, k_reg):
    """One pass over every source equals each pair's own path."""
    ds, corners, pairs, kinds = frame
    assoc = _fit(ds, k_cls, k_reg)
    _assert_pairs_equal_per_pair(assoc, corners, pairs)
    calls = shared_calls(assoc)
    event(f"{len(set(s for s, _ in pairs))} sources asked")
    event("some calls certified" if calls["certified"] else "none certified")
    event("some calls fell back" if calls["fallback"] else "none fell back")
    event("a declining source" if {"grid", "mixed"} & set(kinds) else "generic sources")


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_targets=st.integers(2, 4),
    subset=st.integers(1, 15),
    k_reg=st.integers(1, 6),
)
def test_generic_sources_are_bit_identical(seed, n_targets, subset, k_reg):
    """Generic rows certify, so this mostly runs the stacked vote and regression."""
    rng = np.random.default_rng(seed)
    ds = AssociationDataset()
    edges = rng.uniform(200.0, 800.0, n_targets)
    rows = []
    for _ in range(int(rng.integers(40, 300))):
        src = BBox.from_xywh(
            rng.uniform(0, 1000), rng.uniform(100, 600),
            rng.uniform(30, 80), rng.uniform(20, 60),
        )
        rows.append(src)
        for t in range(1, n_targets + 1):
            visible = src.x1 + rng.normal(0.0, 80.0) < edges[t - 1]
            dst = src.translate(40.0 * t + rng.normal(0.0, 5.0), -10.0)
            ds.pair(0, t).add(src, dst if visible else None)
    assoc = _fit(ds, k_reg=k_reg)
    queries = _generic_queries(int(rng.integers(1, 14)), seed=seed % 1000)
    queries += rows[: int(rng.integers(0, 3))]
    targets = [t for t in range(1, n_targets + 1) if subset >> (t - 1) & 1]
    _assert_source_equals_per_pair(assoc, queries, targets or [1])
    calls = shared_calls(assoc)
    event("some calls certified" if calls["certified"] else "none certified")
    event("some calls fell back" if calls["fallback"] else "none fell back")


class TestCertificate:
    def test_generic_queries_take_the_certified_path(self):
        assoc = _fit(_generic_dataset())
        _predict(assoc, _generic_queries(), [1, 2, 3])
        assert shared_calls(assoc) == {"certified": 6, "fallback": 0}
        _assert_source_equals_per_pair(assoc, _generic_queries(), [1, 2, 3])

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
        _assert_source_equals_per_pair(assoc, [query], [1, 2])
        assert shared_calls(assoc)["fallback"] > 0

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
        _assert_source_equals_per_pair(assoc, [box], [1, 2])
        assert shared_calls(assoc)["fallback"] > 0

    def test_an_uncertified_regressor_searches_on_its_own(self):
        """Target 2's fifth visible row lies past the shared list; target 1's do not."""
        ds = AssociationDataset()
        for i in range(1, 41):
            src = BBox.from_xywh(100.0 + 3.0 * i, 300.0, 40.0, 30.0)
            ds.pair(0, 1).add(src, src.translate(50.0, 0.0) if i < 30 else None)
            seen = i <= 4 or i >= 35
            ds.pair(0, 2).add(src, src.translate(80.0, 0.0) if seen else None)
        assoc = _fit(ds)
        query = BBox.from_xywh(100.0, 300.0, 40.0, 30.0)
        _assert_source_equals_per_pair(assoc, [query], [1, 2])
        # Both votes and target 1's regression used the shared list.
        assert shared_calls(assoc) == {"certified": 3, "fallback": 1}

    def test_k_above_the_row_count(self):
        ds = AssociationDataset()
        src = BBox.from_xywh(100.0, 300.0, 40.0, 30.0)
        for t in (1, 2):
            ds.pair(0, t).add(src, src.translate(10.0, 0.0))
            ds.pair(0, t).add(src.translate(300.0, 0.0), None)
        assoc = _fit(ds)
        _assert_source_equals_per_pair(assoc, _generic_queries(5), [1, 2])

    def test_regressors_with_different_k_take_the_per_pair_path(self):
        """Target 2 sees 3 rows, so its regressor's k is 3, not 5."""
        rng = np.random.default_rng(0)
        ds = AssociationDataset()
        for i in range(200):
            src = BBox.from_xywh(
                rng.uniform(0, 1000), rng.uniform(100, 600),
                rng.uniform(30, 80), rng.uniform(20, 60),
            )
            ds.pair(0, 1).add(src, src.translate(40.0, 0.0) if src.x1 < 500.0 else None)
            ds.pair(0, 2).add(src, src.translate(80.0, 0.0) if i < 3 else None)
        assoc = _fit(ds)
        readers = pairwise.SourceStack([assoc._sources[0]]).readers[0]
        assert readers[1][2] == 5 and readers[2][2] == 3
        _assert_source_equals_per_pair(assoc, _generic_queries(), [1, 2])
        calls = shared_calls(assoc)
        assert calls["certified"] == 0 and calls["fallback"] >= 3

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
    def test_single_reader_shares_the_search(self):
        """One target is enough to read the source's index."""
        assoc = _fit(_generic_dataset())
        _predict(assoc, _generic_queries(), [2])
        assert shared_calls(assoc) == {"certified": 2, "fallback": 0}
        _assert_source_equals_per_pair(assoc, _generic_queries(), [2])

    def test_constant_label_pairs_are_not_readers(self):
        ds = _generic_dataset(targets=(1, 2))
        src = BBox.from_xywh(100.0, 300.0, 40.0, 30.0)
        for box in [src] * 20:
            ds.pair(0, 3).add(box, None)
        assoc = _fit(ds)
        assert set(assoc._sources[0].column) == {1, 2}
        _assert_source_equals_per_pair(assoc, _generic_queries(), [1, 2, 3])
        assert shared_calls(assoc) == {"certified": 4, "fallback": 0}

    def test_search_runs_once_and_lazily(self, monkeypatch):
        """One search per call, and none when no target reads the index."""
        ds = _generic_dataset()
        for box in [BBox.from_xywh(100.0, 300.0, 40.0, 30.0)] * 20:
            ds.pair(0, 4).add(box, None)
        assoc = _fit(ds)
        runs = []
        original = pairwise.SourceStack._search

        def counting(self, *args):
            runs.append(1)
            return original(self, *args)

        monkeypatch.setattr(pairwise.SourceStack, "_search", counting)
        assert assoc._stack is None
        corners = corner_array(_generic_queries())
        assoc.predict_pairs({0: corners}, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert runs == [1]
        assoc.predict_pairs({0: corners}, [(0, 4)])
        assoc.predict_pairs({0: corners[:0]}, [(0, 1), (0, 2), (0, 3)])
        assert runs == [1]

    def test_unpickled_and_legacy_associators_share(self):
        assoc = _fit(_generic_dataset())
        _predict(assoc, _generic_queries(), [1])
        assert assoc._stack is not None
        loaded = pickle.loads(pickle.dumps(assoc))
        assert loaded._stack is None
        # Models entries written before the key-frame pass carry a call
        # counter, per-source search arrays left out as None, and one
        # more ``mixed`` flag, for the index's infinite row; they load
        # as unused attributes.
        old = pickle.loads(pickle.dumps(assoc))
        index = old._sources[0]
        index.calls = {"certified": 7, "fallback": 0}
        index.basis = index.norms = index.counts = index.rows = None
        index.mixed = np.append(index.mixed, False)
        legacy = pickle.loads(pickle.dumps(old))
        before = shared_calls(assoc)["certified"]
        seen = []
        for each in (assoc, loaded, legacy):
            _assert_source_equals_per_pair(each, _generic_queries(), [1, 2, 3])
            seen.append(shared_calls(each))
        seen[0]["certified"] -= before
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
        assert set(assoc._sources[0].column) == {1, 3}
        got = _predict(assoc, _generic_queries(), [1, 2, 3])
        assert got[1] is NO_BOXES
        _assert_source_equals_per_pair(assoc, _generic_queries(), [1, 2, 3])


def test_s1_key_frames_mostly_take_the_certified_path():
    """Guards the fast path: a certificate that always declines is still correct."""
    for seed in (0, 7919):
        scenario = get_scenario("S1", seed=seed)
        config = PipelineConfig(policy="balb", horizon=1, n_horizons=40, seed=seed)
        trained = train_models(scenario, config)
        Pipeline(scenario, config, trained).run()
        calls = shared_calls(trained.associator)
        total = calls["certified"] + calls["fallback"]
        # Every source camera with a later camera reads its index, so all
        # ten camera pairs make a classifier call on every key frame.
        assert total >= 40 * 10
        assert calls["fallback"] <= 0.01 * total
