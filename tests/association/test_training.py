"""Tests for association dataset collection."""

import numpy as np
import pytest

from repro.association.training import (
    AssociationDataset,
    PairDataset,
    box_features,
    box_target,
    collect_association_dataset,
)
from repro.geometry.box import BBox
from repro.scenarios.aic21 import scenario_s2
from tests.association.reference_pair import target_to_box


class TestFeatureEncoding:
    def test_box_features_shape(self):
        feats = box_features(BBox.from_xywh(100, 50, 40, 20))
        assert feats == [100, 50, 40, 20, 2.0]

    def test_target_roundtrip(self):
        box = BBox.from_xywh(100, 50, 40, 20)
        assert target_to_box(np.array(box_target(box))) == box

    def test_target_to_box_clamps_degenerate_sizes(self):
        box = target_to_box(np.array([100.0, 50.0, -5.0, 0.0]))
        assert box.width >= 2.0 and box.height >= 2.0


class TestPairDataset:
    def test_add_positive_and_negative(self):
        ds = PairDataset(pair=(0, 1))
        ds.add(BBox.from_xywh(10, 10, 5, 5), BBox.from_xywh(20, 20, 6, 6))
        ds.add(BBox.from_xywh(30, 30, 5, 5), None)
        assert ds.n_samples == 2
        assert ds.n_positive == 1
        x, y = ds.classification_arrays()
        assert x.shape == (2, 5)
        assert list(y) == [1.0, 0.0]
        xr, yr = ds.regression_arrays()
        assert xr.shape == (1, 5) and yr.shape == (1, 4)


class TestCollect:
    def test_collects_from_scenario(self):
        scenario = scenario_s2(seed=3)
        world, rig = scenario.build()
        world.run(30.0, 0.1)
        dataset = collect_association_dataset(world, rig, duration_s=40.0)
        assert sum(p.n_samples for p in dataset.pairs.values()) > 0
        # Ordered pairs in both directions.
        assert (0, 1) in dataset.pairs and (1, 0) in dataset.pairs

    def test_positive_rows_only_for_covisible(self):
        scenario = scenario_s2(seed=4)
        world, rig = scenario.build()
        world.run(30.0, 0.1)
        dataset = collect_association_dataset(world, rig, duration_s=40.0)
        for pair_ds in dataset.pairs.values():
            assert pair_ds.n_positive <= pair_ds.n_samples

    def test_invalid_durations_raise(self):
        scenario = scenario_s2(seed=5)
        world, rig = scenario.build()
        with pytest.raises(ValueError):
            collect_association_dataset(world, rig, duration_s=0.0)
        with pytest.raises(ValueError):
            collect_association_dataset(
                world, rig, duration_s=10.0, sample_interval_s=0.01, dt=0.1
            )

    def test_pair_accessor_creates_lazily(self):
        ds = AssociationDataset()
        pair = ds.pair(3, 7)
        assert pair.pair == (3, 7)
        assert ds.pair(3, 7) is pair
