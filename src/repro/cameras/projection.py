"""Per-frame projection cache shared by every projection consumer.

Coverage splitting, occlusion, full-frame detection, region detection,
new-region search and fleet-health observation all need each camera's
view of the same objects. The cache projects every camera of the rig in
one :func:`project_objects_multi` call per distinct object snapshot and
hands the resulting ``{object_id: BBox}`` tables to every consumer.

A cache instance belongs to one frame of a world trajectory (see
:mod:`repro.runtime.trajectory`) or to one frozen view, and serves every
run that reads it; its tables are read-only. Tables are keyed by the
*identity* of the object list; the cache keeps a strong reference to
each keyed list so an ``id()`` can never be recycled while it lives.
A pickled cache carries its cameras only: a restored one projects again
on demand, with bit-identical results.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cameras.camera import Camera, project_objects_multi
from repro.geometry.box import BBox
from repro.world.entities import WorldObject
from repro.world.soa import FrameArrays


def camera_boxes(
    camera: Camera, objects: Sequence[WorldObject]
) -> Dict[int, BBox]:
    """One camera's ``{object_id: clipped_box}`` table, for callers
    outside the frame loop that hold no :class:`FrameProjectionCache`."""
    return project_objects_multi([camera], FrameArrays(objects))[0]


class FrameProjectionCache:
    """Memoized batched projections of one frame over the rig's cameras."""

    __slots__ = ("_cameras", "_frames", "_tables", "_coverage")

    def __init__(self, cameras: Sequence[Camera]) -> None:
        self._cameras = list(cameras)
        # id(list) -> (list ref, FrameArrays); the ref pins the id.
        self._frames: Dict[int, Tuple[Sequence[WorldObject], FrameArrays]] = {}
        # (camera_id, id(list)) -> visible-object box table.
        self._tables: Dict[Tuple[int, int], Dict[int, BBox]] = {}
        # id(list) -> {object_id: [covering cam ids]}.
        self._coverage: Dict[int, Dict[int, List[int]]] = {}

    def __getstate__(self) -> Tuple[Camera, ...]:
        return tuple(self._cameras)

    def __setstate__(self, cameras: Tuple[Camera, ...]) -> None:
        self.__init__(cameras)  # type: ignore[misc]

    def arrays(self, objects: Sequence[WorldObject]) -> FrameArrays:
        """The SoA snapshot for this object list (built once per list)."""
        key = id(objects)
        entry = self._frames.get(key)
        if entry is None:
            entry = (objects, FrameArrays(objects))
            self._frames[key] = entry
        return entry[1]

    def boxes(
        self, camera: Camera, objects: Sequence[WorldObject]
    ) -> Dict[int, BBox]:
        """``{object_id: clipped_box}`` of the camera's visible objects.

        The first request for a snapshot fills every camera's table in one
        stacked call; objects absent from the mapping are not visible.
        """
        snapshot = id(objects)
        key = (camera.camera_id, snapshot)
        table = self._tables.get(key)
        if table is None:
            tables = project_objects_multi(self._cameras, self.arrays(objects))
            for cam, built in zip(self._cameras, tables):
                self._tables[(cam.camera_id, snapshot)] = built
            table = self._tables[key]
        return table

    def coverage_table(
        self, objects: Sequence[WorldObject]
    ) -> Dict[int, List[int]]:
        """``{object_id: covering camera ids}`` built in one sweep.

        One pass over each camera's box table; appending in camera order
        gives exactly the id order :meth:`CameraRig.coverage_set`
        produces. Its keys are exactly the ids visible to at least one
        camera (callers default to an empty list).
        """
        key = id(objects)
        table = self._coverage.get(key)
        if table is None:
            table = {}
            for camera in self._cameras:
                cam_id = camera.camera_id
                for oid in self.boxes(camera, objects):
                    table.setdefault(oid, []).append(cam_id)
            self._coverage[key] = table
        return table
