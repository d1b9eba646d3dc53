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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.association.pairwise import PairwiseAssociator
from repro.geometry.box import BBox, corner_array, iou_cost_blocks
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


class _UnionFind:
    """Union-find over integer ids ``0 .. n - 1``."""

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))

    def find(self, key: int) -> int:
        parent = self._parent
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:  # path compression
            parent[key], key = root, parent[key]
        return root

    def union(self, a: int, b: int) -> None:
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
        # Observation ``idx`` of camera ``cam`` is union-find id
        # ``offset[cam] + idx``; every id starts as its own group, so
        # singletons survive.
        offset: Dict[int, int] = {}
        total = 0
        for cam in camera_ids:
            offset[cam] = total
            total += len(observations[cam])
        uf = _UnionFind(total)
        if total:
            self._merge_pairs(observations, camera_ids, offset, uf)

        groups: Dict[int, GlobalObject] = {}
        next_id = 0
        for cam in camera_ids:
            base = offset[cam]
            for idx, obs in enumerate(observations[cam]):
                root = uf.find(base + idx)
                if root not in groups:
                    groups[root] = GlobalObject(global_id=next_id)
                    next_id += 1
                group = groups[root]
                # One observation per camera per object; keep the first.
                group.members.setdefault(cam, obs)
        return sorted(groups.values(), key=lambda g: g.global_id)

    # ------------------------------------------------------------------
    def _merge_pairs(
        self,
        observations: Dict[int, Sequence[LocalObservation]],
        camera_ids: List[int],
        offset: Dict[int, int],
        uf: _UnionFind,
    ) -> None:
        """Match every pair ``(a, b)``, ``b > a``, and merge accepted matches.

        All boxes become one ``(n, 4)`` corner array, sliced per camera.
        Each source camera's pairs are predicted in one
        :meth:`PairwiseAssociator.predict_source` call, and every pair's
        ``1.0 - IoU`` cost comes from one :func:`iou_cost_blocks` call.
        """
        boxes = corner_array(
            [obs.bbox for cam in camera_ids for obs in observations[cam]]
        )
        corners = [
            boxes[offset[cam] : offset[cam] + len(observations[cam])]
            for cam in camera_ids
        ]
        # Per pair with candidates: the source's and the target's first
        # union-find id, the candidate rows, and the candidates' predicted
        # and the target's observed corners.
        pairs: List[Tuple[int, int, List[int], np.ndarray, np.ndarray]] = []
        for pos, cam_a in enumerate(camera_ids):
            if not len(corners[pos]):
                continue
            targets = [p for p in range(pos + 1, len(camera_ids)) if len(corners[p])]
            if not targets:
                continue
            predictions = self.associator.predict_source(
                cam_a, corners[pos], [camera_ids[p] for p in targets]
            )
            for target, (idx, predicted) in zip(targets, predictions):
                if len(idx):
                    pairs.append((
                        offset[cam_a], offset[camera_ids[target]], idx.tolist(),
                        predicted, corners[target],
                    ))
        costs = iou_cost_blocks([(p[3], p[4]) for p in pairs])
        limit = 1.0 - self.iou_threshold
        for (base_a, base_b, idx, _, _), cost in zip(pairs, costs):
            for row, col in hungarian(cost):
                if cost[row][col] <= limit:
                    uf.union(base_a + idx[row], base_b + col)
