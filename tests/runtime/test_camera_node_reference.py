"""The track-table camera node against the frozen per-object node.

Every camera of a real BALB pipeline run is a twin: the node under test
and ``ReferenceCameraNode`` (the per-object node it replaced) built with
the same arguments and fed the same frames and schedules. After every
call the twin compares the tracks, the outcomes (floats by
``float.hex``) and the ``bit_generator.state`` of each of the node's
four RNG streams, so a changed value, order or draw count fails on the
frame where it happens. The runs have occlusion on, so fully hidden
objects get an ``inf`` miss multiplier, and BALB's distributed stage
takes over shadows and opens new regions. The twin adds what a short
fault-free run lacks: on every third regular frame it hides every fifth
object (``inf``), and on every fourth call it installs a quality fade of
1.7. (A fade fault would arm the health watchdog, which on these runs
quarantines cameras and so ends the comparison early.) Each run checks
that it met every one of these cases.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.geometry.box import BBox
from repro.runtime import pipeline as pipeline_module
from repro.runtime.camera_node import CameraNode
from repro.runtime.pipeline import Pipeline, PipelineConfig, train_models
from repro.scenarios.aic21 import get_scenario
from repro.vision.detector import DetectorErrorModel, SimulatedDetector
from repro.world.entities import ObjectClass, WorldObject
from tests.runtime import reference_camera_node as reference
from tests.runtime.reference_camera_node import ReferenceCameraNode


def _box(b):
    return (b.x1.hex(), b.y1.hex(), b.x2.hex(), b.y2.hex())


def _detections(dets):
    return [
        (_box(d.bbox), float(d.confidence).hex(), d.object_class,
         d.gt_object_id, d.camera_id)
        for d in dets
    ]


def _velocity(v):
    return None if v is None else (v[0].hex(), v[1].hex())


def new_tracks(node):
    return [
        (t.track_id, _box(t.bbox), t.status.value, t.assigned_camera,
         t.misses, t.last_gt_id, _velocity(t.velocity),
         None if t.velocity is None else t.frames_since_update, t.size)
        for t in node.tracks.values()
    ]


def reference_tracks(ref):
    """The reference's three dicts as one table (and their lockstep)."""
    states = ref.flow._states
    sizes = ref.book.sizes()
    assert set(states) <= set(ref.tracks)
    assert set(sizes) <= set(ref.tracks)
    rows = []
    for tid, t in ref.tracks.items():
        state = states.get(tid)
        if state is not None:
            # Between frames the flow's box is the track's box.
            assert _box(state.bbox) == _box(t.bbox)
        rows.append(
            (tid, _box(t.bbox), t.status.value, t.assigned_camera,
             t.misses, t.last_gt_id,
             None if state is None else _velocity(state.velocity),
             None if state is None else state.frames_since_update,
             sizes.get(tid))
        )
    return rows


def rng_states(node):
    return [
        node._rng.bit_generator.state,
        node.detector._rng.bit_generator.state,
        node.flow._rng.bit_generator.state,
        node.executor._rng.bit_generator.state,
    ]


def outcome_fields(outcome):
    fields = {}
    for field in dataclasses.fields(outcome):
        name = field.name
        value = getattr(outcome, name)
        if name == "detections":
            value = _detections(value)
        elif name == "report":
            value = [(tid, _box(b), gt) for tid, b, gt in outcome.report]
        elif isinstance(value, float):
            value = value.hex()
        fields[name] = value
    return fields


class _Executors:
    """Forwards the pipeline's throttling to both nodes' executors."""

    def __init__(self, *executors):
        self._executors = executors

    def set_slowdown(self, factor):
        for executor in self._executors:
            executor.set_slowdown(factor)


class TwinNode:
    """A camera node that runs the reference beside it and compares."""

    def __init__(self, seen, **kwargs):
        self.node = CameraNode(**kwargs)
        self.ref = ReferenceCameraNode(**kwargs)
        self.camera = self.node.camera
        self.guard = self.node.guard
        self.executor = _Executors(self.node.executor, self.ref.executor)
        self.seen = seen
        self.calls = 0
        self.regular_calls = 0
        self.check()

    def check(self):
        assert new_tracks(self.node) == reference_tracks(self.ref)
        assert rng_states(self.node) == rng_states(self.ref)

    def set_quality_fade(self, factor):
        self.node.set_quality_fade(factor)
        self.ref.set_quality_fade(factor)

    def _plant_fade(self):
        """Run every fourth call under a fade; returns the fade to restore."""
        restore = self.node.quality_fade
        self.calls += 1
        if self.calls % 4 == 0:
            self.set_quality_fade(1.7)
        if self.node.quality_fade > 1.0:
            self.seen["fade"] += 1
        return restore

    def apply_schedule(self, assigned, shadows):
        self.node.apply_schedule(assigned, shadows)
        self.ref.apply_schedule(assigned, shadows)
        self.seen["shadows"] += len(shadows)
        self.check()

    def _count_inf(self, kind, multipliers, boxes):
        if multipliers and any(
            math.isinf(m) for oid, m in multipliers.items() if oid in boxes
        ):
            self.seen[kind] += 1

    def process_key_frame(self, objects, multipliers=None, boxes=None):
        restore = self._plant_fade()
        self._count_inf("key_inf", multipliers, boxes)
        expected = self.ref.process_key_frame(objects, multipliers, boxes)
        outcome = self.node.process_key_frame(objects, multipliers, boxes)
        assert outcome_fields(outcome) == outcome_fields(expected)
        self.set_quality_fade(restore)
        self.check()
        self.seen["key"] += 1
        return outcome

    def process_regular_frame(
        self, objects, policy, multipliers=None, boxes=None
    ):
        restore = self._plant_fade()
        self.regular_calls += 1
        if self.regular_calls % 3 == 0:
            multipliers = dict(multipliers or {})
            for oid in boxes:
                if oid % 5 == 0:
                    multipliers[oid] = math.inf
        self._count_inf("regular_inf", multipliers, boxes)
        expected = self.ref.process_regular_frame(
            objects, policy, multipliers, boxes
        )
        outcome = self.node.process_regular_frame(
            objects, policy, multipliers, boxes
        )
        assert outcome_fields(outcome) == outcome_fields(expected)
        self.set_quality_fade(restore)
        self.check()
        self.seen["regular"] += 1
        self.seen["takeovers"] += outcome.n_takeovers
        self.seen["new_regions"] += outcome.n_new_regions
        return outcome


@pytest.mark.parametrize(
    "scenario_name,seed",
    [("S1", 0), ("S1", 7919), ("S3", 0), ("S3", 7919)],
)
def test_node_equals_the_frozen_per_object_node(
    scenario_name, seed, monkeypatch
):
    scenario = get_scenario(scenario_name, seed=seed)
    config = PipelineConfig(
        policy="balb",
        horizon=10,
        n_horizons=10,
        warmup_s=10.0,
        train_duration_s=30.0,
        seed=seed,
        occlusion=True,
    )
    trained = train_models(scenario, config)
    seen = dict.fromkeys(
        ("key", "regular", "key_inf", "regular_inf", "fade", "shadows",
         "takeovers", "new_regions"), 0
    )
    monkeypatch.setattr(
        pipeline_module,
        "CameraNode",
        lambda **kwargs: TwinNode(seen, **kwargs),
    )
    Pipeline(scenario, config, trained).run()
    assert all(seen.values()), seen


def test_detector_equals_the_frozen_detector_at_the_frame_edges():
    """Boxes on and across the frame edges, tiny boxes and strong jitter:
    the clip to nothing (5 draws), the 2 px size floor and the clamps
    that real runs rarely reach."""
    camera = get_scenario("S1", seed=0).cameras[0]
    w, h = camera.frame_size
    errors = DetectorErrorModel(
        center_jitter_frac=0.6, size_jitter_frac=0.9, base_miss_prob=0.1,
        false_positive_rate=0.5,
    )
    layout = np.random.default_rng(5)
    for trial in range(40):
        objects, boxes, multipliers = [], {}, {}
        for oid in range(12):
            bw, bh = layout.uniform(0.5, 40.0, 2).tolist()
            x = float(layout.choice([-bw / 2, 0.0, w / 2, w - bw, w - bw / 2]))
            y = float(layout.choice([-bh / 2, 0.0, h / 2, h - bh, h - bh / 2]))
            x1, y1 = max(x, 0.0), max(y, 0.0)
            boxes[oid] = BBox(x1, y1, min(x + bw, w), min(y + bh, h))
            objects.append(WorldObject.of_class(oid, ObjectClass.CAR, 0, 0, 0, 1))
            multipliers[oid] = [1.0, 2.5, math.inf][oid % 3]
        regions = [b.expand(5.0) for b in boxes.values()][::2]
        new = SimulatedDetector(camera, errors, np.random.default_rng(trial))
        old = reference.SimulatedDetector(
            camera, errors, np.random.default_rng(trial)
        )
        for _ in range(5):
            assert _detections(
                new.detect_full_frame(objects, multipliers, boxes)
            ) == _detections(old.detect_full_frame(objects, multipliers, boxes))
            assert _detections(
                new.detect_regions(
                    objects, [r.as_tuple() for r in regions], None, boxes
                )
            ) == _detections(old.detect_regions(objects, regions, None, boxes))
        assert new._rng.bit_generator.state == old._rng.bit_generator.state
