"""Tests for the camera node pipeline."""

import pytest

from repro.cameras.camera import Camera, CameraIntrinsics, CameraPose
from repro.devices.profiles import JETSON_TX2, latency_model_for
from repro.runtime.camera_node import CameraNode, TrackStatus
from repro.runtime.policies import IndependentPolicy
from repro.vision.detector import DetectorErrorModel
from repro.vision.flow import FlowNoiseModel
from repro.world.entities import ObjectClass, WorldObject


def make_node(seed=0, **kwargs):
    camera = Camera(
        camera_id=0,
        pose=CameraPose(x=0, y=0, z=6.0, yaw=0.0, pitch_down=0.3),
        intrinsics=CameraIntrinsics(focal_px=950, image_width=1280, image_height=704),
        max_range=80.0,
    )
    model = latency_model_for(JETSON_TX2)
    defaults = dict(
        detector_errors=DetectorErrorModel(
            center_jitter_frac=0.0,
            size_jitter_frac=0.0,
            base_miss_prob=0.0,
            small_box_extra_miss=0.0,
            false_positive_rate=0.0,
        ),
        flow_noise=FlowNoiseModel(base_sigma_px=0.0, drift_growth=1.0),
        gpu_jitter=0.0,
    )
    defaults.update(kwargs)
    return CameraNode(camera, model, seed=seed, **defaults)


def car(oid, x, y=0.0, speed=10.0):
    return WorldObject.of_class(oid, ObjectClass.CAR, x, y, 0.0, speed)


class TestKeyFrame:
    def test_detects_and_opens_tracks(self):
        node = make_node()
        outcome = node.process_key_frame([car(0, 20), car(1, 40)])
        assert len(node.tracks) == 2
        assert outcome.inference_ms == pytest.approx(
            node.latency_model.full_frame_latency()
        )
        assert len(outcome.report) == 2
        gts = sorted(gt for _, _, gt in outcome.report)
        assert gts == [0, 1]

    def test_track_continuity_across_key_frames(self):
        node = make_node()
        node.process_key_frame([car(0, 20)])
        tid_before = list(node.tracks)[0]
        # Object moved a little; the track should be matched, not recreated.
        node.process_key_frame([car(0, 21)])
        assert list(node.tracks) == [tid_before]

    def test_vanished_object_dropped(self):
        node = make_node()
        node.process_key_frame([car(0, 20)])
        node.process_key_frame([])
        assert node.tracks == {}

    def test_size_book_reset_each_horizon(self):
        node = make_node()
        objects = [car(0, 20)]
        node.process_key_frame(objects)
        tid = list(node.tracks)[0]
        node.process_regular_frame(objects, IndependentPolicy())
        assert node.tracks[tid].size is not None  # pinned by the slice
        node.process_key_frame(objects)
        assert list(node.tracks) == [tid]
        assert node.tracks[tid].size is None


class TestApplySchedule:
    def test_statuses_installed(self):
        node = make_node()
        node.process_key_frame([car(0, 20), car(1, 40)])
        tids = sorted(node.tracks)
        node.apply_schedule([tids[0]], {tids[1]: 7})
        assert node.tracks[tids[0]].status is TrackStatus.ASSIGNED
        assert node.tracks[tids[1]].status is TrackStatus.SHADOW
        assert node.tracks[tids[1]].assigned_camera == 7

    def test_unmentioned_track_stays_assigned(self):
        node = make_node()
        node.process_key_frame([car(0, 20)])
        tid = list(node.tracks)[0]
        node.apply_schedule([], {})
        assert node.tracks[tid].status is TrackStatus.ASSIGNED


class TestRegularFrame:
    def test_assigned_tracks_inspected(self):
        node = make_node()
        objects = [car(0, 20), car(1, 40)]
        node.process_key_frame(objects)
        outcome = node.process_regular_frame(objects, IndependentPolicy())
        assert outcome.n_slices == 2
        assert outcome.inference_ms > 0
        assert sorted(d.gt_object_id for d in outcome.detections) == [0, 1]

    def test_moving_object_followed(self):
        node = make_node()
        obj = car(0, 20, speed=10.0)
        node.process_key_frame([obj])
        for _ in range(5):
            obj.x += 1.0
            outcome = node.process_regular_frame([obj], IndependentPolicy())
            assert [d.gt_object_id for d in outcome.detections] == [0]
        assert len(node.tracks) == 1

    def test_shadow_tracks_cost_nothing(self):
        node = make_node()
        objects = [car(0, 20)]
        node.process_key_frame(objects)
        tid = list(node.tracks)[0]
        node.apply_schedule([], {tid: 9})

        class ShadowOnly(IndependentPolicy):
            def inspect_track(self, track):
                return track.is_assigned

        outcome = node.process_regular_frame(objects, ShadowOnly())
        assert outcome.n_slices == 0
        assert outcome.inference_ms == 0.0
        assert node.tracks[tid].status is TrackStatus.SHADOW

    def test_new_region_opens_track(self):
        node = make_node()
        node.process_key_frame([])
        outcome = node.process_regular_frame([car(5, 30)], IndependentPolicy())
        assert outcome.n_new_regions == 1
        assert len(node.tracks) == 1
        assert [d.gt_object_id for d in outcome.detections] == [5]

    def test_policy_can_reject_new_region(self):
        node = make_node()
        node.process_key_frame([])

        class NoNew(IndependentPolicy):
            def allow_new_region(self, box):
                return False

        outcome = node.process_regular_frame([car(5, 30)], NoNew())
        assert outcome.n_new_regions == 0
        assert node.tracks == {}

    def test_track_dropped_after_misses(self):
        node = make_node(max_misses=1)
        obj = car(0, 20)
        node.process_key_frame([obj])
        # Object disappears entirely (e.g. left the world).
        for _ in range(4):
            node.process_regular_frame([], IndependentPolicy())
        assert node.tracks == {}

    def test_track_dropped_when_leaving_frame(self):
        node = make_node()
        obj = car(0, 20, y=0.0, speed=14.0)
        node.process_key_frame([obj])
        # Sweep the object far sideways out of view over several frames.
        for _ in range(60):
            obj.y += 2.0
            node.process_regular_frame([obj], IndependentPolicy())
            if not node.tracks:
                break
        assert node.tracks == {}

    def test_overheads_reported(self):
        node = make_node()
        objects = [car(0, 20)]
        node.process_key_frame(objects)
        outcome = node.process_regular_frame(objects, IndependentPolicy())
        assert outcome.tracking_ms > 0
        assert outcome.distributed_ms > 0
        assert outcome.batching_ms > 0

    def test_takeover_promotes_shadow(self):
        node = make_node()
        objects = [car(0, 20)]
        node.process_key_frame(objects)
        tid = list(node.tracks)[0]
        node.apply_schedule([], {tid: 9})

        class TakeEverything(IndependentPolicy):
            pass  # inspect_track returns True even for shadows

        outcome = node.process_regular_frame(objects, TakeEverything())
        assert outcome.n_takeovers == 1
        assert node.tracks[tid].status is TrackStatus.ASSIGNED
        assert node.tracks[tid].assigned_camera == node.camera.camera_id
