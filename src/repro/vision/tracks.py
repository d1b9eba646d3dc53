"""One camera's track table: a record per locally known object.

A camera node keeps its tracks in one ``{track_id: Track}`` dict whose
insertion order is ascending id order: ids are allocated in increasing
order, new tracks are appended, and a key frame rebuilds the table as its
matched tracks (in id order) followed by its new ones. Every per-frame
loop walks the table in that order, so RNG draws happen in id order.

A record holds everything the onboard pipeline knows about the object:
its current box, the central stage's decision (status and the camera
that tracks it), the miss counter, the last ground-truth id it matched
(for evaluation only), the flow state (velocity and frames since the
last detection) and the slice size pinned for the current horizon.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.geometry.box import BBox


class TrackStatus(enum.Enum):
    ASSIGNED = "assigned"  # this camera inspects the track
    SHADOW = "shadow"  # tracked elsewhere; flow-predicted only


class Track:
    """One row of a camera's track table."""

    __slots__ = (
        "track_id",
        "bbox",
        "status",
        "assigned_camera",
        "misses",
        "last_gt_id",
        "velocity",
        "frames_since_update",
        "size",
    )

    def __init__(
        self,
        track_id: int,
        bbox: BBox,
        last_gt_id: int = -1,
        size: Optional[int] = None,
    ) -> None:
        self.track_id = track_id
        self.bbox = bbox
        self.status = TrackStatus.ASSIGNED
        #: For shadows: the camera that tracks the object.
        self.assigned_camera: Optional[int] = None
        self.misses = 0
        self.last_gt_id = last_gt_id
        #: Apparent motion in px/frame; ``None`` until the flow has seen a
        #: detection of the track, and a track without it is not moved.
        self.velocity: Optional[Tuple[float, float]] = None
        self.frames_since_update = 0
        #: Quantized slice size pinned for the current horizon.
        self.size = size
