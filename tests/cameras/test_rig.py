"""Tests for the multi-camera rig."""

import math

import pytest

from repro.cameras.camera import Camera, CameraIntrinsics, CameraPose
from repro.cameras.rig import CameraRig
from repro.world.entities import ObjectClass, WorldObject


def cam(cid, x, y, yaw, max_range=60.0):
    return Camera(
        camera_id=cid,
        pose=CameraPose(x=x, y=y, z=6.0, yaw=yaw, pitch_down=0.3),
        intrinsics=CameraIntrinsics(focal_px=900, image_width=1280, image_height=704),
        max_range=max_range,
    )


def facing_pair():
    """Two cameras facing each other across the origin: overlap in the middle."""
    return CameraRig([
        cam(0, -40.0, 0.0, 0.0),
        cam(1, 40.0, 0.0, math.pi),
    ])


def car_at(x, y):
    return WorldObject.of_class(0, ObjectClass.CAR, x, y, 0.0, 10.0)


class TestRigBasics:
    def test_requires_cameras(self):
        with pytest.raises(ValueError):
            CameraRig([])

    def test_unique_ids_required(self):
        with pytest.raises(ValueError):
            CameraRig([cam(0, 0, 0, 0), cam(0, 10, 0, 0)])

    def test_lookup(self):
        rig = facing_pair()
        assert rig.camera(1).camera_id == 1
        with pytest.raises(KeyError):
            rig.camera(99)

    def test_len_and_iter(self):
        rig = facing_pair()
        assert len(rig) == 2
        assert [c.camera_id for c in rig] == [0, 1]


class TestCoverage:
    def test_middle_object_seen_by_both(self):
        rig = facing_pair()
        assert rig.coverage_set(car_at(0.0, 0.0)) == [0, 1]

    def test_near_object_seen_by_one(self):
        rig = facing_pair()
        # 15 m in front of camera 0 but 65 m from camera 1 (out of range).
        assert rig.coverage_set(car_at(-25.0, 0.0)) == [0]

    def test_unseen_object(self):
        rig = facing_pair()
        assert rig.coverage_set(car_at(0.0, 200.0)) == []

    def test_project_all_consistent_with_coverage(self):
        rig = facing_pair()
        objects = [car_at(0.0, 0.0), car_at(-25.0, 0.0)]
        # Unique ids required for dict keying.
        objects[1].object_id = 1
        proj = rig.project_all(objects)
        assert 0 in proj[0] and 0 in proj[1]
        assert 1 in proj[0] and 1 not in proj[1]

    def test_visible_counts(self):
        rig = facing_pair()
        objects = [car_at(0.0, 0.0)]
        counts = rig.visible_counts(objects)
        assert counts == {0: 1, 1: 1}


class TestOverlap:
    def test_fov_overlap_matrix_symmetric(self):
        rig = facing_pair()
        mat = rig.fov_overlap_matrix()
        assert mat.shape == (2, 2)
        assert mat[0, 1] == pytest.approx(mat[1, 0])
        assert mat[0, 1] > 0  # facing cameras do overlap

    def test_diagonal_is_own_area(self):
        rig = facing_pair()
        mat = rig.fov_overlap_matrix()
        poly_area = rig.camera(0).ground_fov_polygon().area
        assert mat[0, 0] == pytest.approx(poly_area)

    def test_overlap_fraction_in_unit_interval(self):
        rig = facing_pair()
        frac = rig.overlap_fraction(0, 1)
        assert 0.0 < frac <= 1.0

    def test_disjoint_cameras_zero_overlap(self):
        rig = CameraRig([
            cam(0, 0.0, 0.0, 0.0, max_range=30.0),
            cam(1, 200.0, 0.0, 0.0, max_range=30.0),
        ])
        assert rig.overlap_fraction(0, 1) == 0.0

    def test_cameras_seeing_ground_point(self):
        rig = facing_pair()
        def seeing(x, y):
            return [c.camera_id for c in rig.cameras if c.can_see(car_at(x, y))]

        assert seeing(0.0, 0.0) == [0, 1]
        assert seeing(-25.0, 0.0) == [0]
