"""Cross-camera object association (Section II-C, step 3 + the pair loop).

Given each camera's detected boxes, the matcher identifies *global
objects*: groups of per-camera detections that correspond to the same
physical target. For every ordered camera pair ``(i, i')`` with
``i' > i`` it (1) filters ``i``'s boxes through the visibility
classifier, (2) regresses their expected location on ``i'``, (3) runs the
Hungarian algorithm on IoU proximity against ``i'``'s detections, and
(4) merges accepted matches with union-find.

A key frame does steps 1 and 2 for every pair in one pass
(:meth:`PairwiseAssociator.predict_pairs`) and scores every pair's step 3
costs in one array; a pair whose assignment the Hungarian solver's seed
decides takes it from that array, and only the others are solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.association.pairwise import PairwiseAssociator
from repro.geometry.box import (
    BBox,
    corner_array,
    iou_cost_stack,
    scalar_iou_cost_rows,
)
from repro.ml.hungarian import hungarian, seeded_assignments

#: With at most this many cost cells in a key frame, the scalar mirror of
#: the batched IoU chain is faster than paying numpy's fixed per-call
#: overhead.
_IOU_SCALAR_MAX_CELLS = 64


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

        All boxes become one ``(n, 4)`` corner array, sliced per camera,
        and one :meth:`PairwiseAssociator.predict_pairs` call predicts
        every pair. With more than ``_IOU_SCALAR_MAX_CELLS`` cost cells in
        all, one :func:`iou_cost_stack` call gives every pair's ``1.0 -
        IoU`` block and :func:`seeded_assignments` reads off each block
        that ``hungarian``'s seed decides; only the other blocks become
        nested lists for ``hungarian``. With fewer cells,
        :func:`scalar_iou_cost_rows` scores each pair, as numpy's per-call
        overhead would cost more than the cells.
        """
        boxes = corner_array(
            [obs.bbox for cam in camera_ids for obs in observations[cam]]
        )
        corners = {
            cam: boxes[offset[cam] : offset[cam] + len(observations[cam])]
            for cam in camera_ids
        }
        pairs = [
            (cam_a, cam_b)
            for pos, cam_a in enumerate(camera_ids)
            if len(corners[cam_a])
            for cam_b in camera_ids[pos + 1 :]
            if len(corners[cam_b])
        ]
        # Per pair with candidates: the source's and the target's first
        # union-find id, the candidate rows, and the candidates' predicted
        # and the target's observed corners.
        blocks = [
            (offset[a], offset[b], idx, predicted, corners[b])
            for (a, b), (idx, predicted) in zip(
                pairs, self.associator.predict_pairs(corners, pairs)
            )
            if len(idx)
        ]
        limit = 1.0 - self.iou_threshold
        if sum(len(b[3]) * len(b[4]) for b in blocks) <= _IOU_SCALAR_MAX_CELLS:
            for base_a, base_b, idx, predicted, target in blocks:
                cost = scalar_iou_cost_rows(predicted.tolist(), target.tolist())
                _solve(uf, cost, limit, base_a, idx.tolist(), base_b)
            return
        # Block i's candidates are rows first_a[i] .. + n[i] of the
        # stacked predictions, its observations rows first_b[i] .. + m[i]
        # of ``boxes``.
        n = np.array([len(b[2]) for b in blocks])
        m = np.array([len(b[4]) for b in blocks])
        first_a = np.cumsum(n) - n
        first_b = np.array([b[1] for b in blocks])
        predicted = np.concatenate([b[3] for b in blocks])
        cost = iou_cost_stack(
            _padded(predicted, first_a, n.max()), _padded(boxes, first_b, m.max()), n, m
        )
        decided, block, row, col = seeded_assignments(cost, n, m)
        keep = cost[block, row, col] <= limit
        block, row, col = block[keep], row[keep], col[keep]
        ids_a = np.concatenate([b[0] + b[2] for b in blocks])[first_a[block] + row]
        for id_a, id_b in zip(ids_a.tolist(), (first_b[block] + col).tolist()):
            uf.union(id_a, id_b)
        for i in np.flatnonzero(~decided).tolist():
            base_a, base_b, idx, _, _ = blocks[i]
            block_cost = cost[i, : n[i], : m[i]].tolist()
            _solve(uf, block_cost, limit, base_a, idx.tolist(), base_b)


def _solve(
    uf: _UnionFind,
    cost: List[List[float]],
    limit: float,
    base_a: int,
    rows: List[int],
    base_b: int,
) -> None:
    """Merge the matches of one pair's cost block within ``limit``."""
    for row, col in hungarian(cost):
        if cost[row][col] <= limit:
            uf.union(base_a + rows[row], base_b + col)


def _padded(rows: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """``rows[first[i] : first[i] + width]`` for each block ``i``, stacked.

    Past the end of ``rows`` the last row repeats: a block's rows past
    its own length are padding, whatever they hold.
    """
    return rows[np.minimum(first[:, None] + np.arange(width), len(rows) - 1)]
