"""Pinhole camera model mapping world objects to pixel bounding boxes.

Each simulated smart camera is a statically mounted pinhole camera with a
pose (position, yaw, downward pitch) and intrinsics (focal length in
pixels, image size). Objects are 3-D boxes; their image bounding box is the
extent of the 8 projected corners. Because object height and orientation
enter the projection, the mapping of 2-D boxes *between* cameras is
non-linear — the property that motivates the paper's data-driven
association over plain homography.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.box import BBox
from repro.geometry.polygon import ConvexPolygon
from repro.world.entities import WorldObject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.world.soa import FrameArrays


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: square pixels, principal point at image centre."""

    focal_px: float
    image_width: int
    image_height: int

    def __post_init__(self) -> None:
        if self.focal_px <= 0:
            raise ValueError("focal_px must be positive")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image size must be positive")

    @property
    def horizontal_fov(self) -> float:
        """Full horizontal field of view in radians."""
        return 2.0 * math.atan2(self.image_width / 2.0, self.focal_px)


@dataclass(frozen=True)
class CameraPose:
    """Extrinsics: position in metres, yaw (ccw from +x), pitch down (rad)."""

    x: float
    y: float
    z: float
    yaw: float
    pitch_down: float

    def __post_init__(self) -> None:
        if self.z <= 0:
            raise ValueError("camera must be mounted above the ground (z > 0)")
        if not 0.0 <= self.pitch_down < math.pi / 2:
            raise ValueError("pitch_down must be in [0, pi/2)")


class Camera:
    """A statically mounted camera observing the ground-plane world."""

    def __init__(
        self,
        camera_id: int,
        pose: CameraPose,
        intrinsics: CameraIntrinsics,
        max_range: float = 80.0,
        min_box_pixels: float = 8.0,
        name: str = "",
    ) -> None:
        if max_range <= 0:
            raise ValueError("max_range must be positive")
        self.camera_id = camera_id
        self.pose = pose
        self.intrinsics = intrinsics
        self.max_range = max_range
        self.min_box_pixels = min_box_pixels
        self.name = name or f"cam{camera_id}"
        self._rotation = _rotation_matrix(pose.yaw, pose.pitch_down)
        # Flattened pose/rotation/intrinsics for the scalar path and its
        # batched mirror (identical expression grouping keeps the two
        # bit-for-bit equal; see project_objects_multi).
        (
            self._r00, self._r01, self._r02,
            self._r10, self._r11, self._r12,
            self._r20, self._r21, self._r22,
        ) = (float(v) for v in self._rotation.ravel())
        self._px = float(pose.x)
        self._py = float(pose.y)
        self._pz = float(pose.z)
        self._focal = float(intrinsics.focal_px)
        self._half_w = intrinsics.image_width / 2.0
        self._half_h = intrinsics.image_height / 2.0
        self._max_range_sq = max_range * max_range

    # ------------------------------------------------------------------
    @property
    def frame_size(self) -> Tuple[int, int]:
        return (self.intrinsics.image_width, self.intrinsics.image_height)

    def project_point(
        self, x: float, y: float, z: float = 0.0
    ) -> Optional[Tuple[float, float]]:
        """Project a world point to pixels; None when behind the camera.

        Pure scalar arithmetic: per-call numpy allocations were the single
        hottest cost of the frame loop, and BLAS matvec rounding differs
        from elementwise evaluation, which would break the bit-identity
        contract with the batched path (see project_objects_multi).
        """
        dx = x - self._px
        dy = y - self._py
        dz = z - self._pz
        cz = (self._r20 * dx + self._r21 * dy) + self._r22 * dz
        if cz < 0.5:  # near plane at 0.5 m
            return None
        cx = (self._r00 * dx + self._r01 * dy) + self._r02 * dz
        cy = (self._r10 * dx + self._r11 * dy) + self._r12 * dz
        f = self._focal
        return (f * cx / cz + self._half_w, f * cy / cz + self._half_h)

    def project_object(self, obj: WorldObject) -> Optional[BBox]:
        """The object's clipped image bounding box, or None if not visible.

        Visibility requires: within range, in front of the camera, at least
        a third of the raw box inside the frame, and a box at least
        ``min_box_pixels`` on each side after clipping. This single-object
        form backs :meth:`can_see`; every per-frame box table comes from
        :func:`project_objects_multi`, which must match it bit for bit.
        """
        ddx = obj.x - self._px
        ddy = obj.y - self._py
        if ddx * ddx + ddy * ddy > self._max_range_sq:
            return None
        pts = []
        for cx, cy, cz in obj.corners_3d():
            uv = self.project_point(cx, cy, cz)
            if uv is None:
                return None  # partially behind the camera: treat as invisible
            pts.append(uv)
        raw = BBox.from_points(pts)
        w, h = self.frame_size
        clipped = raw.clip(float(w), float(h))
        if clipped.is_empty():
            return None
        if raw.area > 0 and clipped.area / raw.area < 1.0 / 3.0:
            return None
        if clipped.width < self.min_box_pixels or clipped.height < self.min_box_pixels:
            return None
        return clipped

    def can_see(self, obj: WorldObject) -> bool:
        """True when the object projects to a valid visible box."""
        return self.project_object(obj) is not None

    # ------------------------------------------------------------------
    # Internal flattened constants consumed by project_objects_multi.
    # ------------------------------------------------------------------
    def _projection_constants(self) -> Tuple[float, ...]:
        return (
            self._r00, self._r01, self._r02,
            self._r10, self._r11, self._r12,
            self._r20, self._r21, self._r22,
            self._px, self._py, self._pz,
            self._focal, self._half_w, self._half_h,
            self._max_range_sq,
            float(self.intrinsics.image_width),
            float(self.intrinsics.image_height),
            float(self.min_box_pixels),
        )

    def ground_fov_polygon(self, arc_segments: int = 10) -> ConvexPolygon:
        """Approximate ground-plane field of view as a view cone polygon."""
        half = min(self.intrinsics.horizontal_fov / 2.0, math.pi / 2 - 1e-3)
        return ConvexPolygon.sector(
            apex=(self.pose.x, self.pose.y),
            heading_rad=self.pose.yaw,
            half_angle_rad=half,
            radius=self.max_range,
            arc_segments=arc_segments,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Camera({self.name}, pos=({self.pose.x:.1f},{self.pose.y:.1f}))"


#: LRU of stacked per-rig projection-constant matrices. Camera poses and
#: intrinsics are immutable for the life of a run, so the (C, 19) stack
#: only depends on which cameras make up the rig. Entries pin the camera
#: objects so an id() can never be recycled while its key is alive.
_CONSTS_CAP = 8
_CONSTS_MEMO: "OrderedDict[Tuple[int, ...], Tuple[tuple, np.ndarray]]" = (
    OrderedDict()
)


def _stacked_constants(cameras: "Sequence[Camera]") -> np.ndarray:
    key = tuple(id(cam) for cam in cameras)
    entry = _CONSTS_MEMO.get(key)
    if entry is None or any(
        held is not cam for held, cam in zip(entry[0], cameras)
    ):
        consts = np.array([cam._projection_constants() for cam in cameras])
        entry = (tuple(cameras), consts)
        _CONSTS_MEMO[key] = entry
        while len(_CONSTS_MEMO) > _CONSTS_CAP:
            _CONSTS_MEMO.popitem(last=False)
    else:
        _CONSTS_MEMO.move_to_end(key)
    return entry[1]


def project_objects_multi(
    cameras: "Sequence[Camera]", frame: "FrameArrays"
) -> "List[Dict[int, BBox]]":
    """``{object_id: clipped_box}`` tables for every camera of a rig.

    The one projection path behind every per-frame box table. A single
    stacked ``(C, n, 8)`` evaluation yields, per camera and in object
    order, exactly the objects :meth:`Camera.project_object` accepts,
    with bit-identical coordinates: all expressions stay elementwise with
    the scalar path's grouping — per-camera constants merely broadcast
    along the object/corner axes — and numpy's elementwise float64 ops
    round like CPython floats (BLAS matvec would not).
    Rows behind a camera run through the projective division anyway (the
    gather is what the batching removes); their NaN/inf results are
    discarded by the ``candidates`` mask exactly like the scalar path's
    early return, and never contaminate other entries.
    """
    if not cameras:
        return []
    n = frame.n
    if n == 0:
        return [{} for _ in cameras]
    consts = _stacked_constants(cameras)
    col = consts[:, :, None]  # (C, k, 1) for per-object broadcasts
    cor = consts[:, :, None, None]  # (C, k, 1, 1) for per-corner broadcasts
    r00, r01, r02 = cor[:, 0], cor[:, 1], cor[:, 2]
    r10, r11, r12 = cor[:, 3], cor[:, 4], cor[:, 5]
    r20, r21, r22 = cor[:, 6], cor[:, 7], cor[:, 8]
    dx0 = frame.x[None, :] - col[:, 9]
    dy0 = frame.y[None, :] - col[:, 10]
    in_range = dx0 * dx0 + dy0 * dy0 <= col[:, 15]
    dx = frame.corners_x[None, :, :] - cor[:, 9]
    dy = frame.corners_y[None, :, :] - cor[:, 10]
    dz = frame.corners_z[None, :, :] - cor[:, 11]
    cz = (r20 * dx + r21 * dy) + r22 * dz
    candidates = in_range & (cz >= 0.5).all(axis=2)
    if not candidates.any():
        return [{} for _ in cameras]
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = (r00 * dx + r01 * dy) + r02 * dz
        cy = (r10 * dx + r11 * dy) + r12 * dz
        f = cor[:, 12]
        us = f * cx / cz + cor[:, 13]
        vs = f * cy / cz + cor[:, 14]
        rx1 = us.min(axis=2)
        ry1 = vs.min(axis=2)
        rx2 = us.max(axis=2)
        ry2 = vs.max(axis=2)
        fw = col[:, 16]
        fh = col[:, 17]
        cx1 = np.minimum(np.maximum(rx1, 0.0), fw)
        cy1 = np.minimum(np.maximum(ry1, 0.0), fh)
        cx2 = np.minimum(np.maximum(rx2, 0.0), fw)
        cy2 = np.minimum(np.maximum(ry2, 0.0), fh)
        cw = cx2 - cx1
        ch = cy2 - cy1
        raw_area = (rx2 - rx1) * (ry2 - ry1)
        visible = candidates & (cw > 1e-9) & (ch > 1e-9)
        visible &= ~((raw_area > 0) & (cw * ch / raw_area < 1.0 / 3.0))
        visible &= (cw >= col[:, 18]) & (ch >= col[:, 18])
    # Row-wise tolist() keeps the table build in plain Python floats
    # (exact for float64) instead of one ndarray-scalar cast per field.
    id_list = frame.id_list
    tables: "List[Dict[int, BBox]]" = []
    for ci in range(len(cameras)):
        vis_idx = np.nonzero(visible[ci])[0].tolist()
        if not vis_idx:
            tables.append({})
            continue
        x1r = cx1[ci].tolist()
        y1r = cy1[ci].tolist()
        x2r = cx2[ci].tolist()
        y2r = cy2[ci].tolist()
        tables.append(
            {
                id_list[k]: BBox(x1r[k], y1r[k], x2r[k], y2r[k])
                for k in vis_idx
            }
        )
    return tables


def _rotation_matrix(yaw: float, pitch_down: float) -> np.ndarray:
    """World->camera rotation: camera x=right, y=down, z=forward."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch_down), math.sin(pitch_down)
    forward = np.array([cy * cp, sy * cp, -sp])
    right = np.array([sy, -cy, 0.0])
    down = np.cross(forward, right)
    # Guard against numerical drift: ensure 'down' has negative-z-up sense.
    if down[2] > 0:
        down = -down
    return np.vstack([right, down, forward])
