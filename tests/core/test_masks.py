"""Tests for camera cell masks and owner rules."""

import numpy as np
import pytest

from repro.association.pairwise import PairwiseAssociator
from repro.association.training import AssociationDataset
from repro.core.masks import (
    CameraMask,
    build_camera_masks,
    capacity_owner,
    priority_owner,
)
from repro.geometry.box import BBox


def make_mask(coverage_fn, nx=4, ny=3, camera_id=0):
    coverage = [
        [tuple(coverage_fn(ix, iy)) for ix in range(nx)] for iy in range(ny)
    ]
    return CameraMask(
        camera_id=camera_id,
        frame_w=400.0,
        frame_h=300.0,
        nx=nx,
        ny=ny,
        coverage=coverage,
    )


class TestCameraMask:
    def test_cell_of_centre(self):
        mask = make_mask(lambda ix, iy: [0])
        assert mask.cell_of(BBox.from_xywh(50, 50, 10, 10)) == (0, 0)
        assert mask.cell_of(BBox.from_xywh(350, 250, 10, 10)) == (3, 2)

    def test_cell_clamped_to_grid(self):
        mask = make_mask(lambda ix, iy: [0])
        assert mask.cell_of(BBox.from_xywh(-50, -50, 10, 10)) == (0, 0)
        assert mask.cell_of(BBox.from_xywh(999, 999, 10, 10)) == (3, 2)

    def test_coverage_of(self):
        mask = make_mask(lambda ix, iy: [0, 1] if ix < 2 else [0])
        assert mask.coverage_of(BBox.from_xywh(50, 50, 10, 10)) == (0, 1)
        assert mask.coverage_of(BBox.from_xywh(350, 50, 10, 10)) == (0,)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            CameraMask(0, 100, 100, 2, 2, coverage=[[(0,)]])

    def test_invalid_grid_raises(self):
        with pytest.raises(ValueError):
            CameraMask(0, 100, 100, 0, 2, coverage=[])


class TestOwnerRules:
    def test_priority_owner_first_in_order(self):
        assert priority_owner((0, 1, 2), (2, 0, 1)) == 2

    def test_priority_owner_respects_exclusion(self):
        assert priority_owner((0, 1, 2), (2, 0, 1), exclude=(2,)) == 0

    def test_priority_owner_none_when_empty(self):
        assert priority_owner((), (0, 1)) is None
        assert priority_owner((0,), (0,), exclude=(0,)) is None

    def test_capacity_owner_single_camera(self):
        assert capacity_owner((3,), {3: 1.0}, (0, 0)) == 3

    def test_capacity_owner_contiguous_bands(self):
        capacities = {0: 1.0, 1: 1.0}
        owners = [
            capacity_owner((0, 1), capacities, (ix, 0), grid_nx=16)
            for ix in range(16)
        ]
        # Equal capacity: left half owned by 0, right half by 1.
        assert owners == sorted(owners)
        assert owners.count(0) == 8 and owners.count(1) == 8

    def test_capacity_owner_proportional(self):
        capacities = {0: 3.0, 1: 1.0}
        owners = [
            capacity_owner((0, 1), capacities, (ix, 0), grid_nx=16)
            for ix in range(16)
        ]
        assert owners.count(0) == 12 and owners.count(1) == 4

    def test_capacity_owner_empty_none(self):
        assert capacity_owner((), {}, (0, 0)) is None


class TestBuildMasks:
    def visible_associator(self):
        """Associator trained so camera 0's left half maps to camera 1."""
        return PairwiseAssociator().fit(self.visible_associator_dataset())

    def visible_associator_dataset(self):
        rng = np.random.default_rng(0)
        ds = AssociationDataset()
        fwd = ds.pair(0, 1)
        back = ds.pair(1, 0)
        for _ in range(800):
            cx = rng.uniform(0, 400)
            cy = rng.uniform(0, 300)
            src = BBox.from_xywh(cx, cy, 40, 28)
            dst = src.translate(100, 0) if cx < 200 else None
            fwd.add(src, dst)
            if dst is not None:
                back.add(dst, src)
            else:
                back.add(BBox.from_xywh(cx, cy, 40, 28), None)
        return ds

    def test_masks_built_for_all_cameras(self):
        assoc = self.visible_associator()
        masks = build_camera_masks(
            {0: (400, 300), 1: (400, 300)}, assoc, {0: 40.0, 1: 40.0},
            grid=(8, 6),
        )
        assert set(masks) == {0, 1}
        assert masks[0].nx == 8 and masks[0].ny == 6

    def test_own_camera_always_in_coverage(self):
        assoc = self.visible_associator()
        masks = build_camera_masks(
            {0: (400, 300), 1: (400, 300)}, assoc, {0: 40.0, 1: 40.0},
            grid=(8, 6),
        )
        for mask in masks.values():
            for row in mask.coverage:
                for cell in row:
                    assert mask.camera_id in cell

    def test_one_classifier_sweep_per_ordered_pair_then_memoized(self, monkeypatch):
        """An uncached build asks each ordered camera pair once, in one call;
        a build the memo holds asks none, until a re-fit."""
        assoc = self.visible_associator()
        asked = []
        original = PairwiseAssociator.predict_visible_many

        def counting(self, source, target, boxes):
            asked.append((source, target))
            return original(self, source, target, boxes)

        monkeypatch.setattr(PairwiseAssociator, "predict_visible_many", counting)
        sizes = {0: (400, 300), 1: (400, 300), 2: (400, 300)}
        typical = {0: 40.0, 1: 40.0, 2: 40.0}
        first = build_camera_masks(sizes, assoc, typical, grid=(8, 6))
        pairs = [(a, b) for a in sizes for b in sizes if a != b]
        assert sorted(asked) == pairs
        asked.clear()
        again = build_camera_masks(sizes, assoc, typical, grid=(8, 6))
        assert asked == []
        assert again == first
        assoc.fit(self.visible_associator_dataset())
        build_camera_masks(sizes, assoc, typical, grid=(8, 6))
        assert sorted(asked) == pairs

    def test_covisible_region_detected(self):
        assoc = self.visible_associator()
        masks = build_camera_masks(
            {0: (400, 300), 1: (400, 300)}, assoc, {0: 40.0, 1: 40.0},
            grid=(8, 6),
        )
        left = masks[0].coverage_of(BBox.from_xywh(50, 150, 40, 28))
        right = masks[0].coverage_of(BBox.from_xywh(350, 150, 40, 28))
        assert left == (0, 1)
        assert right == (0,)
