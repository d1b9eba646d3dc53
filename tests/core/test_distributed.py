"""Tests for the distributed BALB stage."""

import pytest

from repro.core.distributed import DistributedPolicy
from repro.core.masks import CameraMask, priority_owner
from repro.geometry.box import BBox


def mask_with(coverage_fn, camera_id=0, nx=4, ny=3):
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


def box_in_cell(ix, iy, nx=4, ny=3, w=400.0, h=300.0):
    return BBox.from_xywh((ix + 0.5) / nx * w, (iy + 0.5) / ny * h, 20, 20)


class TestNewObjectRule:
    def test_highest_priority_tracks(self):
        # Cell covered by cameras 0 and 1; priority order (1, 0).
        mask0 = mask_with(lambda ix, iy: [0, 1], camera_id=0)
        mask1 = mask_with(lambda ix, iy: [0, 1], camera_id=1)
        p0 = DistributedPolicy(0, mask0, (1, 0))
        p1 = DistributedPolicy(1, mask1, (1, 0))
        box = box_in_cell(1, 1)
        assert not p0.should_track_new_object(box)
        assert p1.should_track_new_object(box)

    def test_exclusive_cell_always_tracked(self):
        mask = mask_with(lambda ix, iy: [0], camera_id=0)
        policy = DistributedPolicy(0, mask, (1, 0))
        assert policy.should_track_new_object(box_in_cell(0, 0))

    def test_consistency_across_cameras(self):
        """When both cameras' masks agree that a region is co-visible (the
        synchronized information), exactly one of them claims a new object
        there, whatever the priority order."""
        mask0 = mask_with(lambda ix, iy: [0, 1], camera_id=0)
        mask1 = mask_with(lambda ix, iy: [0, 1], camera_id=1)
        for order in ((0, 1), (1, 0)):
            p0 = DistributedPolicy(0, mask0, order)
            p1 = DistributedPolicy(1, mask1, order)
            for ix in range(4):
                box = box_in_cell(ix, 0)
                claims = int(p0.should_track_new_object(box)) + int(
                    p1.should_track_new_object(box)
                )
                assert claims == 1


class TestTakeoverRule:
    def covering_policy(self, order=(0, 1, 2)):
        # Cells in column 0 visible to all; column 3 visible only to me (0).
        mask = mask_with(
            lambda ix, iy: [0, 1, 2] if ix == 0 else [0], camera_id=0
        )
        return DistributedPolicy(0, mask, order)

    def test_no_takeover_while_assigned_camera_sees_it(self):
        policy = self.covering_policy()
        box = box_in_cell(0, 0)  # assigned camera 1 still covers this cell
        assert not policy.assigned_camera_lost_object(box, 1)
        assert not policy.should_take_over(box, 1)

    def test_takeover_when_assigned_camera_lost_it(self):
        policy = self.covering_policy()
        box = box_in_cell(3, 0)  # only camera 0 covers this cell
        assert policy.assigned_camera_lost_object(box, 1)
        assert policy.should_take_over(box, 1)

    def test_no_takeover_when_lower_priority(self):
        # Cell covered by 0 and 2; camera 1 lost the object; priority 2 > 0.
        mask = mask_with(lambda ix, iy: [0, 2], camera_id=0)
        policy = DistributedPolicy(0, mask, (2, 0, 1))
        box = box_in_cell(1, 1)
        assert policy.assigned_camera_lost_object(box, 1)
        assert not policy.should_take_over(box, 1)

    def test_own_assignment_never_lost(self):
        policy = self.covering_policy()
        assert not policy.assigned_camera_lost_object(box_in_cell(3, 0), 0)

    def test_owner_of_diagnostic(self):
        policy = self.covering_policy(order=(2, 0, 1))

        def owner_of(box):
            return priority_owner(
                policy.mask.coverage_of(box), policy.priority_order
            )

        assert owner_of(box_in_cell(0, 0)) == 2
        assert owner_of(box_in_cell(3, 0)) == 0


class TestValidation:
    def test_camera_must_be_in_priority_order(self):
        mask = mask_with(lambda ix, iy: [0], camera_id=0)
        with pytest.raises(ValueError):
            DistributedPolicy(0, mask, (1, 2))
