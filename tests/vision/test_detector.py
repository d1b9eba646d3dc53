"""Tests for the simulated detector."""


import numpy as np
import pytest

from repro.cameras.camera import Camera, CameraIntrinsics, CameraPose
from repro.geometry.box import BBox
from repro.vision.detector import DetectorErrorModel, SimulatedDetector
from repro.world.entities import ObjectClass, WorldObject
from tests.geometry.reference_geometry import iou


def make_camera():
    return Camera(
        camera_id=0,
        pose=CameraPose(x=0, y=0, z=6.0, yaw=0.0, pitch_down=0.3),
        intrinsics=CameraIntrinsics(focal_px=950, image_width=1280, image_height=704),
        max_range=80.0,
    )


def car_at(x, y, oid=0):
    return WorldObject.of_class(oid, ObjectClass.CAR, x, y, 0.0, 10.0)


def perfect_errors():
    return DetectorErrorModel(
        center_jitter_frac=0.0,
        size_jitter_frac=0.0,
        base_miss_prob=0.0,
        small_box_extra_miss=0.0,
        false_positive_rate=0.0,
    )


class TestFullFrame:
    def test_perfect_detector_sees_all_visible(self):
        cam = make_camera()
        det = SimulatedDetector(cam, perfect_errors(), np.random.default_rng(0))
        objects = [car_at(20, 0, 0), car_at(40, 5, 1), car_at(-30, 0, 2)]
        found = det.detect_full_frame(objects)
        assert sorted(d.gt_object_id for d in found) == [0, 1]

    def test_detection_box_matches_projection_when_noise_free(self):
        cam = make_camera()
        det = SimulatedDetector(cam, perfect_errors(), np.random.default_rng(0))
        obj = car_at(25, 0)
        found = det.detect_full_frame([obj])
        assert len(found) == 1
        true_box = cam.project_object(obj)
        assert iou(found[0].bbox, true_box) > 0.99

    def test_miss_probability_applied(self):
        cam = make_camera()
        errors = DetectorErrorModel(base_miss_prob=1.0, false_positive_rate=0.0)
        det = SimulatedDetector(cam, errors, np.random.default_rng(0))
        assert det.detect_full_frame([car_at(25, 0)]) == []

    def test_noise_perturbs_boxes(self):
        cam = make_camera()
        errors = DetectorErrorModel(
            center_jitter_frac=0.1, base_miss_prob=0.0, false_positive_rate=0.0
        )
        det = SimulatedDetector(cam, errors, np.random.default_rng(1))
        obj = car_at(25, 0)
        true_box = cam.project_object(obj)
        found = det.detect_full_frame([obj])
        assert found and found[0].bbox != true_box

    def test_false_positives_generated(self):
        cam = make_camera()
        errors = DetectorErrorModel(base_miss_prob=0.0, false_positive_rate=5.0)
        det = SimulatedDetector(cam, errors, np.random.default_rng(2))
        found = det.detect_full_frame([])
        assert any(d.gt_object_id == -1 for d in found)

    def test_detection_metadata(self):
        cam = make_camera()
        det = SimulatedDetector(cam, perfect_errors(), np.random.default_rng(3))
        found = det.detect_full_frame([car_at(25, 0, oid=9)])
        d = found[0]
        assert d.camera_id == 0
        assert d.object_class is ObjectClass.CAR
        assert 0.0 < d.confidence <= 1.0

    def test_small_boxes_miss_more(self):
        # Miss rates over many inspections of a 10 px and a 200 px box
        # match the error model: 0.02 + 0.25 * (1 - 10/32) and 0.02.
        cam = make_camera()
        errors = DetectorErrorModel(false_positive_rate=0.0)
        det = SimulatedDetector(cam, errors, np.random.default_rng(9))
        objects = [car_at(20, 0, 0), car_at(40, 5, 1)]
        boxes = {
            0: BBox.from_xywh(300, 300, 10, 10),
            1: BBox.from_xywh(700, 300, 200, 200),
        }
        trials = 4000
        seen = [0, 0]
        for _ in range(trials):
            for d in det.detect_full_frame(objects, boxes=boxes):
                seen[d.gt_object_id] += 1
        small_miss = 1 - seen[0] / trials
        large_miss = 1 - seen[1] / trials
        assert small_miss == pytest.approx(0.02 + 0.25 * (1 - 10 / 32), abs=0.02)
        assert large_miss == pytest.approx(0.02, abs=0.01)


class TestRegionDetection:
    def test_object_in_region_found(self):
        cam = make_camera()
        det = SimulatedDetector(cam, perfect_errors(), np.random.default_rng(4))
        obj = car_at(25, 0)
        region = cam.project_object(obj).expand(20)
        found = det.detect_regions([obj], [region.as_tuple()])
        assert [d.gt_object_id for d in found] == [0]

    def test_object_outside_region_missed(self):
        cam = make_camera()
        det = SimulatedDetector(cam, perfect_errors(), np.random.default_rng(5))
        obj = car_at(25, 0)
        far_region = (0.0, 0.0, 50.0, 50.0)
        assert det.detect_regions([obj], [far_region]) == []

    def test_no_duplicate_across_overlapping_regions(self):
        cam = make_camera()
        det = SimulatedDetector(cam, perfect_errors(), np.random.default_rng(6))
        obj = car_at(25, 0)
        region = cam.project_object(obj).expand(30)
        found = det.detect_regions(
            [obj], [region.as_tuple(), region.translate(5, 5).as_tuple()]
        )
        assert len(found) == 1

    def test_empty_regions_no_detections(self):
        cam = make_camera()
        det = SimulatedDetector(cam, perfect_errors(), np.random.default_rng(7))
        assert det.detect_regions([car_at(25, 0)], []) == []

    def test_region_detection_never_invents_ids(self):
        cam = make_camera()
        det = SimulatedDetector(cam, None, np.random.default_rng(8))
        obj = car_at(25, 0)
        region = cam.project_object(obj).expand(20).as_tuple()
        for _ in range(20):
            for d in det.detect_regions([obj], [region]):
                assert d.gt_object_id == obj.object_id
