"""Cross-camera object association (Section II-C, step 3 + the pair loop).

Given each camera's detected boxes, the matcher identifies *global
objects*: groups of per-camera detections that correspond to the same
physical target. For every ordered camera pair ``(i, i')`` with
``i' > i`` it (1) filters ``i``'s boxes through the visibility
classifier, (2) regresses their expected location on ``i'``, (3) runs the
Hungarian algorithm on IoU proximity against ``i'``'s detections, and
(4) merges accepted matches with union-find.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.association.pairwise import PairwiseAssociator
from repro.geometry.box import BBox, iou_cost_rows
from repro.ml.hungarian import hungarian


@dataclass(frozen=True)
class LocalObservation:
    """One camera's view of one object at association time."""

    camera_id: int
    track_id: int
    bbox: BBox
    gt_id: int = -1  # ground truth, evaluation only


@dataclass
class GlobalObject:
    """A physical object with its per-camera observations."""

    global_id: int
    members: Dict[int, LocalObservation] = field(default_factory=dict)

    @property
    def coverage(self) -> List[int]:
        """Camera ids that observe this object (the coverage set C_j)."""
        return sorted(self.members)

    def box_on(self, camera_id: int) -> Optional[BBox]:
        """This object's box on ``camera_id``, or None if unobserved there."""
        obs = self.members.get(camera_id)
        return obs.bbox if obs else None


class _UnionFind:
    """Union-find over (camera_id, index) keys."""

    def __init__(self) -> None:
        self._parent: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def find(self, key: Tuple[int, int]) -> Tuple[int, int]:
        self._parent.setdefault(key, key)
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:  # path compression
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: Tuple[int, int], b: Tuple[int, int]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


class CrossCameraMatcher:
    """Associates per-camera observations into global objects."""

    def __init__(
        self,
        associator: PairwiseAssociator,
        iou_threshold: float = 0.15,
    ) -> None:
        if not 0.0 < iou_threshold < 1.0:
            raise ValueError("iou_threshold must be in (0, 1)")
        self.associator = associator
        self.iou_threshold = iou_threshold

    def associate(
        self, observations: Dict[int, Sequence[LocalObservation]]
    ) -> List[GlobalObject]:
        """Group observations into global objects.

        ``observations`` maps camera id to that camera's local detections.
        Returns global objects sorted by id, one per union-find group.
        """
        camera_ids = sorted(observations)
        uf = _UnionFind()
        # Seed every observation so singletons survive.
        for cam in camera_ids:
            for idx in range(len(observations[cam])):
                uf.find((cam, idx))

        for pos, cam_a in enumerate(camera_ids):
            obs_a = observations[cam_a]
            if not obs_a:
                continue
            targets = [b for b in camera_ids[pos + 1 :] if observations[b]]
            # One box list per source camera; pairs that can share one
            # neighbour search over it find it there.
            boxes = self.associator.queries(
                cam_a, [obs.bbox for obs in obs_a], targets
            )
            for cam_b in targets:
                self._match_pair(cam_a, boxes, cam_b, observations[cam_b], uf)

        groups: Dict[Tuple[int, int], GlobalObject] = {}
        next_id = 0
        for cam in camera_ids:
            for idx, obs in enumerate(observations[cam]):
                root = uf.find((cam, idx))
                if root not in groups:
                    groups[root] = GlobalObject(global_id=next_id)
                    next_id += 1
                group = groups[root]
                # One observation per camera per object; keep the first.
                group.members.setdefault(cam, obs)
        return sorted(groups.values(), key=lambda g: g.global_id)

    # ------------------------------------------------------------------
    def _match_pair(
        self,
        cam_a: int,
        boxes_a: List[BBox],
        cam_b: int,
        obs_b: Sequence[LocalObservation],
        uf: _UnionFind,
    ) -> None:
        model = self.associator.model(cam_a, cam_b)
        if model is None:
            return
        # One classifier call and one regressor call per camera pair per
        # frame — sharing one feature build — instead of one of each per
        # observation.
        vis_idx, predicted_boxes = model.predict_visible_boxes(boxes_a)
        if not vis_idx:
            return
        candidates: List[Tuple[int, BBox]] = [
            (idx, predicted)
            for idx, predicted in zip(vis_idx, predicted_boxes)
            if predicted is not None
        ]
        if not candidates:
            return
        # Cost matrix as nested lists: iou_cost_rows is bit-identical to
        # the per-pair ``1.0 - BBox.iou`` loop it replaces, and the list
        # form feeds hungarian without an ndarray round-trip.
        cost = iou_cost_rows(
            [predicted for _, predicted in candidates],
            [b.bbox for b in obs_b],
        )
        for row, col in hungarian(cost):
            if cost[row][col] <= 1.0 - self.iou_threshold:
                uf.union((cam_a, candidates[row][0]), (cam_b, col))


def association_quality(
    globals_found: Sequence[GlobalObject],
) -> Tuple[int, int, int]:
    """Evaluate association against ground truth ids.

    Returns ``(correct_links, wrong_links, missed_links)`` where a link is
    a pair of observations placed in the same global object. Requires
    observations to carry ``gt_id``; false-positive detections (gt_id=-1)
    never count as correct.
    """
    correct = wrong = 0
    gt_to_groups: Dict[int, set] = {}
    for group in globals_found:
        members = list(group.members.values())
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                if a.gt_id >= 0 and a.gt_id == b.gt_id:
                    correct += 1
                else:
                    wrong += 1
        for obs in members:
            if obs.gt_id >= 0:
                gt_to_groups.setdefault(obs.gt_id, set()).add(group.global_id)
    # A gt object split across k groups has been 'missed' k-1 times.
    missed = sum(len(groups) - 1 for groups in gt_to_groups.values())
    return correct, wrong, missed
