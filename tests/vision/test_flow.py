"""Tests for the optical-flow stand-in."""


import numpy as np
import pytest

from repro.cameras.camera import Camera, CameraIntrinsics, CameraPose
from repro.geometry.box import BBox
from repro.vision.flow import FlowNoiseModel, FlowPredictor, find_new_regions, observe
from repro.vision.tracks import Track
from repro.world.entities import ObjectClass, WorldObject
from tests.geometry.reference_geometry import iou


def noise_free():
    return FlowNoiseModel(base_sigma_px=0.0, drift_growth=1.0)


def observed(tid, box):
    """A track the flow has seen one detection of."""
    track = Track(tid, box)
    observe(track, box)
    return track


class TestFlowPredictor:
    def test_requires_explicit_rng(self):
        # Regression: the silent default_rng(0) fallback was removed —
        # every predictor draws noise, so its stream must be owned.
        with pytest.raises(ValueError, match="explicit rng"):
            FlowPredictor(noise_free())

    def test_predict_unknown_key_none(self):
        # A track the flow has not observed has no velocity: it is not
        # moved and draws nothing.
        rng = np.random.default_rng(0)
        flow = FlowPredictor(FlowNoiseModel(), rng)
        box = BBox.from_xywh(100, 100, 40, 40)
        track = Track(42, box)
        before = rng.bit_generator.state
        flow.predict([track])
        assert track.bbox is box
        assert rng.bit_generator.state == before

    def test_static_object_prediction(self):
        flow = FlowPredictor(noise_free(), np.random.default_rng(0))
        box = BBox.from_xywh(100, 100, 40, 40)
        track = observed(1, box)
        flow.predict([track])
        assert track.bbox.center == pytest.approx(box.center)

    def test_velocity_extrapolation(self):
        flow = FlowPredictor(noise_free(), np.random.default_rng(0))
        track = observed(1, BBox.from_xywh(100, 100, 40, 40))
        observe(track, BBox.from_xywh(110, 100, 40, 40))  # +10 px/frame
        flow.predict([track])
        assert track.bbox.center[0] == pytest.approx(120.0)

    def test_velocity_averages_over_missed_frames(self):
        flow = FlowPredictor(noise_free(), np.random.default_rng(0))
        track = observed(1, BBox.from_xywh(100, 100, 40, 40))
        flow.predict([track])
        flow.predict([track])  # two unobserved frames
        observe(track, BBox.from_xywh(130, 100, 40, 40))
        # 30 px over 3 frames -> 10 px/frame
        flow.predict([track])
        assert track.bbox.center[0] == pytest.approx(140.0)

    def test_noise_grows_with_staleness(self):
        noise = FlowNoiseModel(base_sigma_px=2.0, drift_growth=2.0)
        spreads = []
        for frames in (1, 4):
            deltas = []
            for trial in range(200):
                flow = FlowPredictor(noise, np.random.default_rng(trial))
                track = observed(1, BBox.from_xywh(0, 0, 10, 10))
                for _ in range(frames):
                    flow.predict([track])
                deltas.append(track.bbox.center[0])
            spreads.append(np.std(deltas))
        assert spreads[1] > spreads[0] * 2

    def test_drop_and_tracked_keys(self):
        # Only the tracks handed in move and draw: two normals each, in
        # order, one batch per call.
        noise = FlowNoiseModel(base_sigma_px=1.5, drift_growth=1.6)
        rng = np.random.default_rng(3)
        flow = FlowPredictor(noise, rng)
        kept = observed(2, BBox.from_xywh(5, 5, 10, 10))
        flow.predict([kept])
        reference = np.random.default_rng(3)
        dx = 0.0 + (0.0 + 1.5 * reference.normal())
        assert kept.bbox.x1 == 0.0 + dx
        assert rng.bit_generator.state != reference.bit_generator.state
        reference.normal()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_staleness_counter(self):
        flow = FlowPredictor(noise_free(), np.random.default_rng(0))
        track = observed(1, BBox.from_xywh(0, 0, 10, 10))
        assert track.frames_since_update == 0
        flow.predict([track])
        flow.predict([track])
        assert track.frames_since_update == 2
        observe(track, BBox.from_xywh(1, 0, 10, 10))
        assert track.frames_since_update == 0
        assert Track(99, BBox.from_xywh(0, 0, 10, 10)).velocity is None


class TestNewRegions:
    def make_camera(self):
        return Camera(
            camera_id=0,
            pose=CameraPose(x=0, y=0, z=6.0, yaw=0.0, pitch_down=0.3),
            intrinsics=CameraIntrinsics(
                focal_px=950, image_width=1280, image_height=704
            ),
            max_range=80.0,
        )

    def moving_car(self, x=25.0, y=0.0, speed=10.0):
        return WorldObject.of_class(0, ObjectClass.CAR, x, y, 0.0, speed)

    def test_unexplained_mover_reported(self):
        cam = self.make_camera()
        regions = find_new_regions(
            cam, [self.moving_car()], [], np.random.default_rng(0)
        )
        assert len(regions) == 1
        true_box = cam.project_object(self.moving_car())
        assert iou(regions[0], true_box) > 0.3

    def test_explained_mover_not_reported(self):
        cam = self.make_camera()
        obj = self.moving_car()
        predicted = cam.project_object(obj).expand(10)
        regions = find_new_regions(
            cam, [obj], [predicted], np.random.default_rng(1)
        )
        assert regions == []

    def test_static_object_invisible_to_flow(self):
        cam = self.make_camera()
        parked = self.moving_car(speed=0.0)
        regions = find_new_regions(cam, [parked], [], np.random.default_rng(2))
        assert regions == []

    def test_out_of_view_object_not_reported(self):
        cam = self.make_camera()
        behind = self.moving_car(x=-30.0)
        regions = find_new_regions(cam, [behind], [], np.random.default_rng(3))
        assert regions == []

    def test_regions_clipped_to_frame(self):
        cam = self.make_camera()
        regions = find_new_regions(
            cam, [self.moving_car(x=10.0, y=-4.0)], [], np.random.default_rng(4)
        )
        for region in regions:
            assert region.x1 >= 0 and region.y1 >= 0
            assert region.x2 <= 1280 and region.y2 <= 704
