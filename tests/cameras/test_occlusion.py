"""Tests for the inter-object occlusion model."""

import math

import pytest

from repro.cameras.camera import Camera, CameraIntrinsics, CameraPose
from repro.cameras.occlusion import OcclusionModel, visible_fractions
from repro.world.entities import ObjectClass, WorldObject


def make_camera(x=0.0, y=0.0):
    return Camera(
        camera_id=0,
        pose=CameraPose(x=x, y=y, z=5.0, yaw=0.0, pitch_down=0.22),
        intrinsics=CameraIntrinsics(focal_px=950, image_width=1280, image_height=704),
        max_range=80.0,
    )


def vehicle(oid, x, y, cls=ObjectClass.BUS):
    return WorldObject.of_class(oid, cls, x, y, 0.0, 10.0)


class TestVisibleFractions:
    def test_single_object_fully_visible(self):
        cam = make_camera()
        fractions = visible_fractions(cam, [vehicle(0, 30, 0)])
        assert fractions[0] == pytest.approx(1.0)

    def test_bus_occludes_car_behind_it(self):
        cam = make_camera()
        bus = vehicle(0, 20, 0, cls=ObjectClass.BUS)
        car = vehicle(1, 40, 0, cls=ObjectClass.CAR)  # directly behind
        fractions = visible_fractions(cam, [bus, car])
        assert fractions[0] == pytest.approx(1.0)  # bus in front: clear
        assert fractions[1] < 0.7  # car largely hidden by the bus

    def test_laterally_separated_objects_clear(self):
        cam = make_camera()
        a = vehicle(0, 30, -8)
        b = vehicle(1, 30, 8)
        fractions = visible_fractions(cam, [a, b])
        assert fractions[0] == pytest.approx(1.0)
        assert fractions[1] == pytest.approx(1.0)

    def test_farther_object_never_occludes_closer(self):
        cam = make_camera()
        near = vehicle(0, 20, 0, cls=ObjectClass.CAR)
        far = vehicle(1, 50, 0, cls=ObjectClass.BUS)
        fractions = visible_fractions(cam, [near, far])
        assert fractions[0] == pytest.approx(1.0)

    def test_invisible_objects_not_reported(self):
        cam = make_camera()
        behind = vehicle(0, -30, 0)
        fractions = visible_fractions(cam, [behind])
        assert 0 not in fractions

    def test_fraction_bounded(self):
        cam = make_camera()
        objects = [vehicle(i, 15 + 5 * i, (i % 3 - 1) * 1.5) for i in range(8)]
        fractions = visible_fractions(cam, objects)
        for value in fractions.values():
            assert 0.0 <= value <= 1.0


class TestOcclusionModel:
    def test_threshold_behaviour(self):
        model = OcclusionModel(visibility_threshold=0.4)
        assert model.effectively_visible(0.5)
        assert not model.effectively_visible(0.3)

    def test_miss_multiplier_monotone(self):
        model = OcclusionModel(visibility_threshold=0.35)
        assert model.miss_multiplier(1.0) == 1.0
        assert model.miss_multiplier(0.7) > model.miss_multiplier(0.9)
        assert model.miss_multiplier(0.2) == float("inf")

    def test_invalid_threshold_raises(self):
        with pytest.raises(ValueError):
            OcclusionModel(visibility_threshold=1.0)
        with pytest.raises(ValueError):
            OcclusionModel(visibility_threshold=-0.1)

    def test_second_camera_recovers_occluded_object(self):
        """The paper's occlusion argument: a differently placed camera
        still sees what the first camera's view hides."""
        front_cam = make_camera(x=0.0, y=0.0)
        side_cam = Camera(
            camera_id=1,
            pose=CameraPose(x=30.0, y=-30.0, z=5.0,
                            yaw=math.pi / 2, pitch_down=0.22),
            intrinsics=CameraIntrinsics(
                focal_px=950, image_width=1280, image_height=704
            ),
            max_range=80.0,
        )
        bus = vehicle(0, 20, 0, cls=ObjectClass.BUS)
        car = vehicle(1, 40, 0, cls=ObjectClass.CAR)
        model = OcclusionModel(visibility_threshold=0.7)
        # The pipeline's coverage rule: a camera covers an object when
        # its visible fraction (0.0 when out of view) is usable.
        covering = [
            cam.camera_id
            for cam in (front_cam, side_cam)
            if model.effectively_visible(
                visible_fractions(cam, [bus, car]).get(car.object_id, 0.0)
            )
        ]
        assert 1 in covering  # the side camera sees past the bus
        assert 0 not in covering  # the front camera does not
