"""Tests for per-pair visibility/location models."""

import numpy as np
import pytest

from repro.association.pairwise import (
    NO_BOXES,
    PairwiseAssociator,
    default_classifier_factory,
    default_regressor_factory,
)
from repro.association.training import AssociationDataset
from repro.geometry.box import BBox, corner_array
from tests.association.reference_pair import predict_box, predict_visible


def synthetic_dataset(n=1500, seed=0):
    """Pair (0, 1): objects with cx < 500 are visible on camera 1 at a
    shifted location; others are not."""
    rng = np.random.default_rng(seed)
    ds = AssociationDataset()
    pair = ds.pair(0, 1)
    for _ in range(n):
        cx = rng.uniform(0, 1000)
        cy = rng.uniform(100, 600)
        w = rng.uniform(30, 80)
        h = w * 0.7
        src = BBox.from_xywh(cx, cy, w, h)
        if cx < 500:
            dst = BBox.from_xywh(cx + 200, cy - 50, w * 1.1, h * 1.1)
        else:
            dst = None
        pair.add(src, dst)
    return ds


def predicted_box(assoc, source, target, box):
    """``box``'s predicted box on ``target``, or None when it is not visible."""
    model = assoc.model(source, target)
    idx, corners = (
        NO_BOXES if model is None
        else model.predict_visible_boxes(corner_array([box]))
    )
    return BBox(*corners[0].tolist()) if len(idx) else None


class TestPairwiseAssociator:
    def test_visibility_prediction(self):
        assoc = PairwiseAssociator().fit(synthetic_dataset())
        visible = BBox.from_xywh(200, 300, 50, 35)
        hidden = BBox.from_xywh(800, 300, 50, 35)
        assert predicted_box(assoc, 0, 1, visible) is not None
        assert predicted_box(assoc, 0, 1, hidden) is None

    def test_location_prediction(self):
        assoc = PairwiseAssociator().fit(synthetic_dataset())
        src = BBox.from_xywh(200, 300, 50, 35)
        pred = predicted_box(assoc, 0, 1, src)
        assert pred is not None
        assert pred.center[0] == pytest.approx(400, abs=30)
        assert pred.center[1] == pytest.approx(250, abs=30)

    def test_predict_box_none_when_classified_invisible(self):
        assoc = PairwiseAssociator().fit(synthetic_dataset())
        hidden = BBox.from_xywh(900, 300, 50, 35)
        assert predicted_box(assoc, 0, 1, hidden) is None

    def test_unknown_pair_predicts_invisible(self):
        assoc = PairwiseAssociator().fit(synthetic_dataset())
        assert predicted_box(assoc, 5, 6, BBox.from_xywh(0, 0, 10, 10)) is None
        assert assoc.model(5, 6) is None

    def test_constant_negative_labels(self):
        ds = AssociationDataset()
        pair = ds.pair(0, 1)
        for i in range(20):
            pair.add(BBox.from_xywh(i * 10, 100, 30, 20), None)
        assoc = PairwiseAssociator().fit(ds)
        assert predicted_box(assoc, 0, 1, BBox.from_xywh(50, 100, 30, 20)) is None

    def test_constant_positive_labels(self):
        ds = AssociationDataset()
        pair = ds.pair(0, 1)
        for i in range(20):
            src = BBox.from_xywh(100 + i * 10, 100, 30, 20)
            pair.add(src, src.translate(50, 0))
        assoc = PairwiseAssociator().fit(ds)
        box = BBox.from_xywh(150, 100, 30, 20)
        assert predict_visible(assoc.model(0, 1), box)
        assert predicted_box(assoc, 0, 1, box) is not None

    def test_custom_factories_used(self):
        calls = []

        def spy_classifier():
            calls.append("cls")
            return default_classifier_factory()

        def spy_regressor():
            calls.append("reg")
            return default_regressor_factory()

        PairwiseAssociator(spy_classifier, spy_regressor).fit(synthetic_dataset())
        assert "cls" in calls and "reg" in calls

    def test_empty_pair_dataset(self):
        ds = AssociationDataset()
        ds.pair(0, 1)  # created but never populated
        assoc = PairwiseAssociator().fit(ds)
        assert predicted_box(assoc, 0, 1, BBox.from_xywh(0, 0, 10, 10)) is None


class TestBatchEquivalence:
    """The vectorized batch APIs must agree with the per-box reference loops."""

    def probes(self, n=64, seed=7):
        rng = np.random.default_rng(seed)
        return [
            BBox.from_xywh(
                rng.uniform(0, 1000), rng.uniform(100, 600), 50, 35
            )
            for _ in range(n)
        ]

    def test_predict_visible_batch_matches_loop(self):
        assoc = PairwiseAssociator().fit(synthetic_dataset())
        model = assoc.model(0, 1)
        probes = self.probes()
        batch = model.predict_visible_batch(probes)
        loop = [predict_visible(model, b) for b in probes]
        assert batch.dtype == bool
        assert list(batch) == loop

    def test_predict_boxes_matches_loop(self):
        assoc = PairwiseAssociator().fit(synthetic_dataset())
        model = assoc.model(0, 1)
        probes = self.probes()
        batch = model.predict_boxes(probes)
        loop = [predict_box(model, b) for b in probes]
        assert len(batch) == len(loop)
        for got, want in zip(batch, loop):
            assert got is not None and want is not None
            assert got.as_tuple() == pytest.approx(want.as_tuple())

    def test_predict_visible_many_matches_loop(self):
        assoc = PairwiseAssociator().fit(synthetic_dataset())
        probes = self.probes()
        batch = assoc.predict_visible_many(0, 1, probes)
        loop = [predict_visible(assoc.model(0, 1), b) for b in probes]
        assert list(batch) == loop

    def test_predict_visible_many_unknown_pair_all_false(self):
        assoc = PairwiseAssociator().fit(synthetic_dataset())
        out = assoc.predict_visible_many(5, 6, self.probes(8))
        assert out.dtype == bool and not out.any()

    def test_batch_apis_on_constant_model(self):
        ds = AssociationDataset()
        pair = ds.pair(0, 1)
        for i in range(20):
            pair.add(BBox.from_xywh(i * 10, 100, 30, 20), None)
        model = PairwiseAssociator().fit(ds).model(0, 1)
        probes = self.probes(5)
        assert not model.predict_visible_batch(probes).any()
        assert model.predict_boxes(probes) == [None] * 5

    def test_batch_apis_on_empty_input(self):
        model = PairwiseAssociator().fit(synthetic_dataset()).model(0, 1)
        assert list(model.predict_visible_batch([])) == []
        assert model.predict_boxes([]) == []
