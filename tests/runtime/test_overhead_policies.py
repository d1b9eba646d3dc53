"""Tests for the overhead model and regular-frame policies."""

import pytest

from repro.core.distributed import DistributedPolicy
from repro.core.masks import CameraMask
from repro.geometry.box import BBox
from repro.runtime.overhead import OverheadModel
from repro.runtime.policies import (
    BALBPolicy,
    CentralOnlyPolicy,
    IndependentPolicy,
    StaticPartitioningPolicy,
    TrackView,
)


class TestOverheadModel:
    def test_tracking_scales_with_tracks(self):
        m = OverheadModel()
        assert m.tracking_ms(10) > m.tracking_ms(0)

    def test_central_scales_with_objects_and_cameras(self):
        m = OverheadModel()
        assert m.central_stage_ms(20, 5) > m.central_stage_ms(5, 2)

    def test_distributed_linear(self):
        m = OverheadModel()
        base = m.distributed_ms(0)
        assert m.distributed_ms(100) == pytest.approx(
            base + 100 * m.distributed_per_object_ms
        )

    def test_batching_costs(self):
        m = OverheadModel()
        assert m.batching_ms(0, 0, 0.0) == 0.0
        assert m.batching_ms(8, 2, 0.3) > 0.0

    def test_magnitudes_match_table2_ranges(self):
        """Paper Table II: tracking 11-21 ms, batching 7-20 ms, central
        1-3 ms amortized, distributed ~0.1-0.2 ms."""
        m = OverheadModel()
        assert 8 <= m.tracking_ms(8) <= 25
        assert 0.05 <= m.distributed_ms(15) <= 0.3
        # 12 slices of 128 px in 2 batches: ~0.2 Mpx.
        assert 5 <= m.batching_ms(12, 2, 0.2) <= 25
        # 15 objects, 5 cameras, amortized over a 10-frame horizon.
        assert 0.5 <= m.central_stage_ms(15, 5) / 10 <= 3.5

    def test_negative_inputs_raise(self):
        m = OverheadModel()
        with pytest.raises(ValueError):
            m.tracking_ms(-1)
        with pytest.raises(ValueError):
            m.central_stage_ms(-1, 2)
        with pytest.raises(ValueError):
            m.distributed_ms(-1)
        with pytest.raises(ValueError):
            m.batching_ms(-1, 0, 0)


def full_mask(camera_id, coverage, nx=4, ny=3):
    grid = [[tuple(coverage) for _ in range(nx)] for _ in range(ny)]
    return CameraMask(camera_id, 400.0, 300.0, nx, ny, grid)


def view(tid, assigned, assigned_cam, cx=200.0, cy=150.0):
    return TrackView(
        track_id=tid,
        bbox=BBox.from_xywh(cx, cy, 30, 30),
        is_assigned=assigned,
        assigned_camera=assigned_cam,
    )


class TestPolicies:
    def test_independent_tracks_everything(self):
        policy = IndependentPolicy()
        assert policy.inspect_track(view(1, False, 2))
        assert policy.allow_new_region(BBox(0, 0, 10, 10))

    def test_balb_inspects_assigned(self):
        dist = DistributedPolicy(0, full_mask(0, [0, 1]), (1, 0))
        policy = BALBPolicy(dist)
        assert policy.inspect_track(view(1, True, 0))

    def test_balb_takeover_when_owner_lost(self):
        # Mask says only camera 0 covers the cell -> camera 1 lost it.
        dist = DistributedPolicy(0, full_mask(0, [0]), (1, 0))
        policy = BALBPolicy(dist)
        assert policy.inspect_track(view(1, False, 1))

    def test_balb_no_takeover_when_owner_still_sees(self):
        dist = DistributedPolicy(0, full_mask(0, [0, 1]), (1, 0))
        policy = BALBPolicy(dist)
        assert not policy.inspect_track(view(1, False, 1))

    def test_balb_new_region_by_priority(self):
        dist_hi = DistributedPolicy(0, full_mask(0, [0, 1]), (0, 1))
        dist_lo = DistributedPolicy(0, full_mask(0, [0, 1]), (1, 0))
        box = BBox.from_xywh(200, 150, 30, 30)
        assert BALBPolicy(dist_hi).allow_new_region(box)
        assert not BALBPolicy(dist_lo).allow_new_region(box)

    def test_central_only_never_expands(self):
        policy = CentralOnlyPolicy()
        assert policy.inspect_track(view(1, True, 0))
        assert not policy.inspect_track(view(2, False, 1))
        assert not policy.allow_new_region(BBox.from_xywh(200, 150, 30, 30))

    def test_shadow_without_owner_not_taken(self):
        dist = DistributedPolicy(0, full_mask(0, [0]), (0,))
        policy = BALBPolicy(dist)
        assert not policy.inspect_track(view(1, False, None))

    def test_sp_owns_by_capacity_bands(self):
        mask0 = full_mask(0, [0, 1])
        caps = {0: 1.0, 1: 1.0}
        policy = StaticPartitioningPolicy(0, mask0, caps)
        left = view(1, True, 0, cx=50.0)
        right = view(2, True, 0, cx=350.0)
        assert policy.inspect_track(left)  # left band belongs to camera 0
        assert not policy.inspect_track(right)

    def test_sp_new_region_same_rule(self):
        mask0 = full_mask(0, [0, 1])
        policy = StaticPartitioningPolicy(0, mask0, {0: 1.0, 1: 1.0})
        assert policy.allow_new_region(BBox.from_xywh(50, 150, 30, 30))
        assert not policy.allow_new_region(BBox.from_xywh(350, 150, 30, 30))

    def test_sp_exclusive_cell_always_owned(self):
        policy = StaticPartitioningPolicy(0, full_mask(0, [0]), {0: 1.0})
        assert policy.inspect_track(view(1, True, 0, cx=390.0))
