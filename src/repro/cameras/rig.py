"""Multi-camera rig: a set of cameras observing the same world.

The rig provides ground-truth co-visibility queries (used for evaluation
and for supervising the association models) and geometric overlap
analysis between camera fields of view.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cameras.camera import Camera, project_objects_multi
from repro.geometry.box import BBox
from repro.world.entities import WorldObject
from repro.world.soa import FrameArrays


class CameraRig:
    """An ordered collection of cameras with unique ids."""

    def __init__(self, cameras: Sequence[Camera]) -> None:
        if not cameras:
            raise ValueError("rig needs at least one camera")
        ids = [c.camera_id for c in cameras]
        if len(set(ids)) != len(ids):
            raise ValueError("camera ids must be unique")
        self.cameras: Tuple[Camera, ...] = tuple(cameras)
        self._by_id = {c.camera_id: c for c in cameras}

    def __len__(self) -> int:
        return len(self.cameras)

    def __iter__(self):
        return iter(self.cameras)

    def camera(self, camera_id: int) -> Camera:
        """Look up a camera by id (KeyError if absent)."""
        try:
            return self._by_id[camera_id]
        except KeyError:
            raise KeyError(f"no camera with id {camera_id}") from None

    @property
    def camera_ids(self) -> List[int]:
        return [c.camera_id for c in self.cameras]

    # ------------------------------------------------------------------
    def project_all(
        self, objects: Sequence[WorldObject]
    ) -> Dict[int, Dict[int, BBox]]:
        """``{camera_id: {object_id: bbox}}`` of all visible objects."""
        tables = project_objects_multi(self.cameras, FrameArrays(objects))
        return {
            cam.camera_id: table for cam, table in zip(self.cameras, tables)
        }

    def coverage_set(self, obj: WorldObject) -> List[int]:
        """Ground-truth coverage set C_j: cameras that can see ``obj``."""
        return [c.camera_id for c in self.cameras if c.can_see(obj)]

    def visible_counts(self, objects: Sequence[WorldObject]) -> Dict[int, int]:
        """Objects-per-camera workload snapshot (the Figure 2 quantity)."""
        return {
            cam_id: len(boxes)
            for cam_id, boxes in self.project_all(objects).items()
        }

    # ------------------------------------------------------------------
    def fov_overlap_matrix(self) -> np.ndarray:
        """Pairwise ground-FoV overlap areas (m^2), symmetric."""
        polys = [c.ground_fov_polygon() for c in self.cameras]
        n = len(polys)
        mat = np.zeros((n, n))
        for i in range(n):
            mat[i, i] = polys[i].area
            for j in range(i + 1, n):
                area = polys[i].overlap_area(polys[j])
                mat[i, j] = mat[j, i] = area
        return mat

    def overlap_fraction(self, camera_id_a: int, camera_id_b: int) -> float:
        """Overlap area as a fraction of the smaller camera's FoV."""
        pa = self.camera(camera_id_a).ground_fov_polygon()
        pb = self.camera(camera_id_b).ground_fov_polygon()
        inter = pa.overlap_area(pb)
        smaller = min(pa.area, pb.area)
        return inter / smaller if smaller > 0 else 0.0
