"""Each frame's recall ledger, object by object, from an independent rule.

A frame's ``visible_gt`` holds the objects some live camera covers and
``coverage_lost`` the objects only down cameras cover. This test runs S1
BALB through a camera crash, reads every frame's objects back from the
same recorded trajectory, and recomputes both sets here: the covering
cameras come from the scalar :meth:`Camera.project_object` (which shares
no code with the batched coverage table) and, under occlusion, from an
occlusion rule written out below; the down cameras come from the spec.
"""

import math

import pytest

from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.runtime.trajectory import share_worlds, world_trajectory
from repro.scenarios.aic21 import get_scenario

# Camera 1 is down for frames [12, 22).
CRASH = "crash:cam=1,at=12,for=10"
DOWN_CAMERA, DOWN_FROM, DOWN_UNTIL = 1, 12, 22
VISIBILITY_THRESHOLD = 0.35


def _config(occlusion):
    return PipelineConfig(
        policy="balb", horizon=5, n_horizons=8, warmup_s=20.0,
        train_duration_s=20.0, seed=0, faults=CRASH, occlusion=occlusion,
    )


def _boxes(camera, objects):
    """``[(object_id, distance, box)]`` of the objects ``camera`` sees."""
    seen = []
    for obj in objects:
        box = camera.project_object(obj)
        if box is not None:
            distance = math.hypot(obj.x - camera.pose.x, obj.y - camera.pose.y)
            seen.append((obj.object_id, distance, box))
    return seen


def _overlap(a, b):
    w = min(a.x2, b.x2) - max(a.x1, b.x1)
    h = min(a.y2, b.y2) - max(a.y1, b.y1)
    return w * h if w > 0.0 and h > 0.0 else 0.0


def _unoccluded(seen):
    """Ids whose box is at least 35% clear of strictly nearer boxes.

    The nearer boxes' overlaps are summed in object order, and the sum
    is capped at the whole box.
    """
    clear = set()
    for oid, distance, box in seen:
        area = (box.x2 - box.x1) * (box.y2 - box.y1)
        if area <= 0:
            continue
        covered = sum(
            _overlap(box, other)
            for other_id, other_distance, other in seen
            if other_id != oid and other_distance < distance
        )
        if max(0.0, 1.0 - covered / area) >= VISIBILITY_THRESHOLD:
            clear.add(oid)
    return clear


def _expected_split(cameras, objects, frame, occlusion):
    covering = {}
    for camera in cameras:
        seen = _boxes(camera, objects)
        ids = _unoccluded(seen) if occlusion else {oid for oid, _, _ in seen}
        for oid in ids:
            covering.setdefault(oid, set()).add(camera.camera_id)
    down = {DOWN_CAMERA} if DOWN_FROM <= frame < DOWN_UNTIL else set()
    lost = {oid for oid, cams in covering.items() if cams <= down}
    return set(covering) - lost, lost


@pytest.fixture(scope="module")
def scenario_and_models():
    scenario = get_scenario("S1", seed=0)
    return scenario, train_models(scenario, _config(False))


@pytest.mark.parametrize("occlusion", [False, True], ids=["plain", "occluded"])
def test_visible_and_lost_sets_match_the_oracle(scenario_and_models, occlusion):
    scenario, trained = scenario_and_models
    config = _config(occlusion)
    with share_worlds():
        result = run_policy(scenario, "balb", config, trained)
        trajectory = world_trajectory(
            scenario, config.seed + 10_000, config.warmup_s, depth=1
        )
        frames = [trajectory.frame(k)[0] for k in range(len(result.frames))]
    assert len(frames) == config.horizon * config.n_horizons
    for record, objects in zip(result.frames, frames):
        visible, lost = _expected_split(
            scenario.cameras, objects, record.frame_index, occlusion
        )
        assert (set(record.visible_gt), set(record.coverage_lost)) == (
            visible, lost,
        ), f"frame {record.frame_index}"
    assert any(record.coverage_lost for record in result.frames)
    assert all(
        not record.coverage_lost
        for record in result.frames
        if not DOWN_FROM <= record.frame_index < DOWN_UNTIL
    )
