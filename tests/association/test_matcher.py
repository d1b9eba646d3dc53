"""Tests for cross-camera matching into global objects."""

import numpy as np
import pytest

from repro.association import matcher as matcher_module
from repro.association.matcher import (
    CrossCameraMatcher,
    GlobalObject,
    LocalObservation,
)
from repro.association.pairwise import PairwiseAssociator
from repro.association.training import AssociationDataset
from repro.geometry.box import BBox, corner_array
from repro.ml.hungarian import hungarian
from repro.runtime.pipeline import Pipeline, PipelineConfig, train_models
from repro.scenarios.aic21 import get_scenario
from tests.geometry.reference_geometry import iou
from tests.ml.reference_hungarian import reference_hungarian


def association_quality(globals_found):
    """Score associated groups against their observations' ground truth.

    Returns ``(correct_links, wrong_links, missed_links)``, where a link
    is a pair of observations placed in the same global object. A link
    is correct only when both carry the same ``gt_id >= 0``, so
    false-positive detections (``gt_id=-1``) never count as correct. A
    ground-truth object split across k groups is missed k - 1 times.
    """
    correct = wrong = 0
    gt_to_groups = {}
    for group in globals_found:
        members = list(group.members.values())
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                if a.gt_id >= 0 and a.gt_id == b.gt_id:
                    correct += 1
                else:
                    wrong += 1
        for observation in members:
            if observation.gt_id >= 0:
                gt_to_groups.setdefault(observation.gt_id, set()).add(
                    group.global_id
                )
    missed = sum(len(groups) - 1 for groups in gt_to_groups.values())
    return correct, wrong, missed


def shift_dataset(n=1500, seed=0, dx=200.0):
    """Pair (0,1) and (1,0): everything visible, shifted by +/- dx."""
    rng = np.random.default_rng(seed)
    ds = AssociationDataset()
    fwd = ds.pair(0, 1)
    back = ds.pair(1, 0)
    for _ in range(n):
        cx = rng.uniform(100, 800)
        cy = rng.uniform(100, 600)
        w = rng.uniform(30, 80)
        src = BBox.from_xywh(cx, cy, w, w * 0.7)
        dst = src.translate(dx, 0)
        fwd.add(src, dst)
        back.add(dst, src)
    return ds


def fitted_matcher(seed=0):
    assoc = PairwiseAssociator().fit(shift_dataset(seed=seed))
    return CrossCameraMatcher(assoc, iou_threshold=0.2)


def obs(cam, tid, cx, cy, w=50.0, gt=-1):
    return LocalObservation(
        camera_id=cam, track_id=tid, bbox=BBox.from_xywh(cx, cy, w, w * 0.7),
        gt_id=gt,
    )


class TestMatcher:
    def test_simple_merge(self):
        matcher = fitted_matcher()
        observations = {
            0: [obs(0, 10, 300, 300, gt=1)],
            1: [obs(1, 20, 500, 300, gt=1)],  # shifted by +200
        }
        globs = matcher.associate(observations)
        assert len(globs) == 1
        assert globs[0].coverage == [0, 1]

    def test_unrelated_objects_stay_separate(self):
        matcher = fitted_matcher()
        observations = {
            0: [obs(0, 10, 300, 300, gt=1)],
            1: [obs(1, 20, 900, 600, gt=2)],  # nowhere near the mapping
        }
        globs = matcher.associate(observations)
        assert len(globs) == 2

    def test_multiple_objects_matched_one_to_one(self):
        matcher = fitted_matcher()
        observations = {
            0: [obs(0, 1, 200, 200, gt=1), obs(0, 2, 400, 400, gt=2)],
            1: [obs(1, 3, 400, 200, gt=1), obs(1, 4, 600, 400, gt=2)],
        }
        globs = matcher.associate(observations)
        assert len(globs) == 2
        correct, wrong, missed = association_quality(globs)
        assert correct == 2 and wrong == 0 and missed == 0

    def test_singletons_survive(self):
        matcher = fitted_matcher()
        observations = {0: [obs(0, 1, 300, 300, gt=5)], 1: []}
        globs = matcher.associate(observations)
        assert len(globs) == 1
        assert globs[0].coverage == [0]

    def test_empty_input(self):
        matcher = fitted_matcher()
        assert matcher.associate({0: [], 1: []}) == []

    def test_global_ids_dense_and_sorted(self):
        matcher = fitted_matcher()
        observations = {
            0: [obs(0, 1, 200, 200, gt=1), obs(0, 2, 600, 500, gt=2)],
            1: [obs(1, 3, 400, 200, gt=1)],
        }
        globs = matcher.associate(observations)
        assert [g.global_id for g in globs] == list(range(len(globs)))

    def test_invalid_threshold_raises(self):
        assoc = PairwiseAssociator().fit(shift_dataset())
        with pytest.raises(ValueError):
            CrossCameraMatcher(assoc, iou_threshold=1.5)


class TestAssociationQuality:
    def test_wrong_merge_counted(self):
        g = GlobalObject(
            global_id=0,
            members={0: obs(0, 1, 0, 0, gt=1), 1: obs(1, 2, 0, 0, gt=2)},
        )
        correct, wrong, missed = association_quality([g])
        assert correct == 0 and wrong == 1

    def test_split_object_counted_missed(self):
        g1 = GlobalObject(global_id=0, members={0: obs(0, 1, 0, 0, gt=1)})
        g2 = GlobalObject(global_id=1, members={1: obs(1, 2, 0, 0, gt=1)})
        correct, wrong, missed = association_quality([g1, g2])
        assert missed == 1

    def test_false_positive_never_correct(self):
        g = GlobalObject(
            global_id=0,
            members={0: obs(0, 1, 0, 0, gt=-1), 1: obs(1, 2, 0, 0, gt=-1)},
        )
        correct, wrong, _ = association_quality([g])
        assert correct == 0 and wrong == 1


def _reference_associate(associator, iou_threshold, observations):
    """Per-pair matching on BBox objects: one list of members per global object.

    Each pair runs its own brute-force pair model, scores ``1.0 - iou``
    per box pair, solves with the frozen unseeded Hungarian, and merges
    through a union-find keyed by ``(camera, index)``.
    """
    parent = {}

    def find(key):
        parent.setdefault(key, key)
        while parent[key] != key:
            key = parent[key]
        return key

    cameras = sorted(observations)
    for pos, a in enumerate(cameras):
        for b in cameras[pos + 1 :]:
            model = associator.model(a, b)
            if model is None or not observations[a] or not observations[b]:
                continue
            boxes = corner_array([o.bbox for o in observations[a]])
            idx, predicted = model.predict_visible_boxes(boxes)
            cost = [
                [1.0 - iou(BBox(*p), o.bbox) for o in observations[b]]
                for p in predicted.tolist()
            ]
            for r, c in reference_hungarian(cost) if cost else []:
                if cost[r][c] <= 1.0 - iou_threshold:
                    ra, rb = find((a, int(idx[r]))), find((b, c))
                    if ra != rb:
                        parent[rb] = ra
    groups = {}
    for cam in cameras:
        for i, o in enumerate(observations[cam]):
            groups.setdefault(find((cam, i)), {}).setdefault(cam, o)
    return list(groups.values())


@pytest.mark.parametrize("scenario_name", ["S1", "S2", "S3"])
def test_associate_equals_the_per_pair_reference(scenario_name, monkeypatch):
    """On recorded key frames, ``associate`` forms the reference's objects."""
    frames = []
    original = CrossCameraMatcher.associate

    def recording(self, observations):
        found = original(self, observations)
        frames.append((self, observations, found))
        return found

    monkeypatch.setattr(CrossCameraMatcher, "associate", recording)
    for seed in (0, 7919):
        scenario = get_scenario(scenario_name, seed=seed)
        config = PipelineConfig(policy="balb", horizon=1, n_horizons=15, seed=seed)
        Pipeline(scenario, config, train_models(scenario, config)).run()
    assert len(frames) >= 30
    merged = 0
    for matcher, observations, found in frames:
        want = _reference_associate(
            matcher.associator, matcher.iou_threshold, observations
        )
        assert [g.global_id for g in found] == list(range(len(want)))
        assert [g.members for g in found] == want
        merged += sum(len(members) > 1 for members in want)
    # S2's two cameras share no object in these frames; its pairs have no
    # shared index, so it checks the per-pair path and the scalar costs.
    assert merged > 0 or scenario_name == "S2"


def test_a_planted_first_minimum_conflict_reaches_the_solver(monkeypatch):
    """Two candidates whose best overlap is one detection go to hungarian.

    Nine objects per camera make more cost cells than the scalar path
    takes, so every other block is read off the cost array.
    """
    solved = []

    def recording(cost):
        solved.append(cost)
        return hungarian(cost)

    monkeypatch.setattr(matcher_module, "hungarian", recording)
    matcher = fitted_matcher()
    spots = [(150 + 70 * i, 150 + 45 * i) for i in range(8)]
    observations = {
        0: [obs(0, i, x, y, gt=i) for i, (x, y) in enumerate(spots)]
        + [obs(0, 8, 158, 150, gt=8)],  # next to object 0
        1: [obs(1, 10 + i, x + 200, y, gt=i) for i, (x, y) in enumerate(spots)]
        + [obs(1, 18, 900, 600, gt=9)],
    }
    found = matcher.associate(observations)
    assert len(solved) == 1
    block = solved[0]
    assert len(block) == 9 and len(block[0]) == 9
    firsts = [row.index(min(row)) for row in block]
    assert firsts[0] == firsts[-1] == 0
    want = _reference_associate(matcher.associator, matcher.iou_threshold, observations)
    assert [g.members for g in found] == want
    # Without the planted object the seed decides the block: no solver.
    del observations[0][-1]
    found = matcher.associate(observations)
    assert len(solved) == 1
    want = _reference_associate(matcher.associator, matcher.iou_threshold, observations)
    assert [g.members for g in found] == want
