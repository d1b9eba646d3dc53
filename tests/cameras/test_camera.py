"""Tests for the pinhole camera model."""

import math

import pytest

from repro.cameras.camera import Camera, CameraIntrinsics, CameraPose
from repro.world.entities import ObjectClass, WorldObject
from tests.geometry.reference_geometry import polygon_contains


def make_camera(x=0.0, y=0.0, z=6.0, yaw=0.0, pitch=0.3, focal=950.0,
                w=1280, h=704, max_range=80.0):
    return Camera(
        camera_id=0,
        pose=CameraPose(x=x, y=y, z=z, yaw=yaw, pitch_down=pitch),
        intrinsics=CameraIntrinsics(focal_px=focal, image_width=w, image_height=h),
        max_range=max_range,
    )


def car_at(x, y, heading=0.0):
    return WorldObject.of_class(0, ObjectClass.CAR, x, y, heading, 10.0)


class TestIntrinsicsAndPose:
    def test_fov_from_focal(self):
        intr = CameraIntrinsics(focal_px=640.0, image_width=1280, image_height=704)
        assert intr.horizontal_fov == pytest.approx(math.pi / 2, rel=1e-6)

    def test_invalid_intrinsics_raise(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(focal_px=0, image_width=100, image_height=100)
        with pytest.raises(ValueError):
            CameraIntrinsics(focal_px=100, image_width=0, image_height=100)

    def test_invalid_pose_raises(self):
        with pytest.raises(ValueError):
            CameraPose(0, 0, 0.0, 0, 0.3)  # on the ground
        with pytest.raises(ValueError):
            CameraPose(0, 0, 5.0, 0, math.pi / 2)  # pointing straight down


class TestProjection:
    def test_point_ahead_projects_near_center_column(self):
        cam = make_camera()
        uv = cam.project_point(30.0, 0.0, 0.0)
        assert uv is not None
        u, v = uv
        assert u == pytest.approx(640.0, abs=1.0)

    def test_point_behind_camera_is_none(self):
        cam = make_camera()
        assert cam.project_point(-10.0, 0.0, 0.0) is None

    def test_point_left_projects_left(self):
        cam = make_camera()
        u_left, _ = cam.project_point(30.0, 5.0, 0.0)
        u_right, _ = cam.project_point(30.0, -5.0, 0.0)
        # Camera x-axis (right) points toward negative world y for yaw=0.
        assert u_left < 640.0 < u_right

    def test_closer_ground_point_projects_lower(self):
        cam = make_camera()
        _, v_near = cam.project_point(10.0, 0.0, 0.0)
        _, v_far = cam.project_point(60.0, 0.0, 0.0)
        assert v_near > v_far  # image v grows downward

    def test_higher_point_projects_higher(self):
        cam = make_camera()
        _, v_base = cam.project_point(30.0, 0.0, 0.0)
        _, v_top = cam.project_point(30.0, 0.0, 2.0)
        assert v_top < v_base


class TestObjectProjection:
    def test_visible_object_produces_box(self):
        cam = make_camera()
        box = cam.project_object(car_at(30.0, 0.0))
        assert box is not None
        assert box.width > 0 and box.height > 0

    def test_closer_object_bigger_box(self):
        cam = make_camera()
        near = cam.project_object(car_at(15.0, 0.0))
        far = cam.project_object(car_at(60.0, 0.0))
        assert near is not None and far is not None
        assert near.area > far.area

    def test_object_out_of_range_invisible(self):
        cam = make_camera(max_range=40.0)
        assert cam.project_object(car_at(60.0, 0.0)) is None

    def test_object_behind_invisible(self):
        cam = make_camera()
        assert cam.project_object(car_at(-20.0, 0.0)) is None

    def test_object_far_off_axis_invisible(self):
        cam = make_camera()
        assert cam.project_object(car_at(10.0, 60.0)) is None

    def test_box_clipped_to_frame(self):
        cam = make_camera()
        for x in range(8, 70, 4):
            for y in (-20, -10, 0, 10, 20):
                box = cam.project_object(car_at(float(x), float(y)))
                if box is None:
                    continue
                assert box.x1 >= 0 and box.y1 >= 0
                assert box.x2 <= 1280 and box.y2 <= 704

    def test_orientation_changes_box_aspect(self):
        cam = make_camera()
        lengthwise = cam.project_object(car_at(30.0, 0.0, heading=0.0))
        sideways = cam.project_object(car_at(30.0, 0.0, heading=math.pi / 2))
        assert lengthwise is not None and sideways is not None
        assert lengthwise.width != pytest.approx(sideways.width, rel=0.05)

    def test_can_see_matches_project(self):
        cam = make_camera()
        obj = car_at(30.0, 0.0)
        assert cam.can_see(obj) == (cam.project_object(obj) is not None)


class TestGroundFoV:
    """The ground area a camera sees, read through ``can_see``."""

    def test_sees_ground_point_ahead(self):
        cam = make_camera()
        assert cam.can_see(car_at(30.0, 0.0))

    def test_does_not_see_behind(self):
        cam = make_camera()
        assert not cam.can_see(car_at(-30.0, 0.0))

    def test_does_not_see_beyond_range(self):
        cam = make_camera(max_range=50.0)
        assert not cam.can_see(car_at(60.0, 0.0))

    def test_fov_polygon_contains_visible_ground_points(self):
        cam = make_camera()
        poly = cam.ground_fov_polygon()
        assert polygon_contains(poly, 30.0, 0.0)
        assert not polygon_contains(poly, -10.0, 0.0)

    def test_yawed_camera_sees_rotated_area(self):
        cam = make_camera(yaw=math.pi / 2)
        assert cam.can_see(car_at(0.0, 30.0))
        assert not cam.can_see(car_at(30.0, 0.0))
