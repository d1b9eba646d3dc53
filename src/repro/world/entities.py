"""World entities: the physical objects the cameras observe.

Objects live on a 2-D ground plane (metres) but carry 3-D extent
(length/width/height) so that camera projection produces realistic,
view-dependent bounding boxes — the effect that makes plain homography a
poor cross-camera mapping in the paper (Section II-C, footnote 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
import math
from typing import List, Tuple


class ObjectClass(enum.Enum):
    """Object categories in the simulated traffic scenes."""

    CAR = "car"
    TRUCK = "truck"
    BUS = "bus"
    PEDESTRIAN = "pedestrian"


#: Nominal (length, width, height) in metres per class.
CLASS_DIMENSIONS = {
    ObjectClass.CAR: (4.5, 1.8, 1.5),
    ObjectClass.TRUCK: (8.0, 2.4, 3.2),
    ObjectClass.BUS: (11.0, 2.5, 3.0),
    ObjectClass.PEDESTRIAN: (0.5, 0.5, 1.7),
}

#: Nominal cruise speed ranges in metres/second per class.
CLASS_SPEED_RANGES = {
    ObjectClass.CAR: (6.0, 14.0),
    ObjectClass.TRUCK: (5.0, 10.0),
    ObjectClass.BUS: (5.0, 9.0),
    ObjectClass.PEDESTRIAN: (0.8, 1.8),
}


@dataclass
class WorldObject:
    """A single moving target: position, heading, speed and 3-D extent.

    ``object_id`` is globally unique within a :class:`~repro.world.world.World`
    run and is the ground-truth identity used for recall accounting and for
    supervising the association models.
    """

    object_id: int
    object_class: ObjectClass
    x: float
    y: float
    heading: float  # radians, direction of travel
    speed: float  # m/s along heading
    length: float
    width: float
    height: float
    spawn_time: float = 0.0
    route_id: int = -1
    route_progress: float = 0.0  # metres travelled along the route
    alive: bool = True
    attributes: dict = field(default_factory=dict)

    @classmethod
    def of_class(
        cls,
        object_id: int,
        object_class: ObjectClass,
        x: float,
        y: float,
        heading: float,
        speed: float,
        size_jitter: float = 1.0,
        spawn_time: float = 0.0,
        route_id: int = -1,
    ) -> "WorldObject":
        """Create an object with class-typical dimensions scaled by jitter."""
        if size_jitter <= 0:
            raise ValueError("size_jitter must be positive")
        length, width, height = CLASS_DIMENSIONS[object_class]
        return cls(
            object_id=object_id,
            object_class=object_class,
            x=x,
            y=y,
            heading=heading,
            speed=speed,
            length=length * size_jitter,
            width=width * size_jitter,
            height=height * size_jitter,
            spawn_time=spawn_time,
            route_id=route_id,
        )

    # ------------------------------------------------------------------

    @property
    def velocity(self) -> Tuple[float, float]:
        return (
            self.speed * math.cos(self.heading),
            self.speed * math.sin(self.heading),
        )

    def footprint_corners(self) -> List[Tuple[float, float]]:
        """The 4 ground-plane corners of the object's oriented footprint."""
        cos_h = math.cos(self.heading)
        sin_h = math.sin(self.heading)
        hl, hw = self.length / 2.0, self.width / 2.0
        corners = []
        for dl, dw in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
            corners.append(
                (
                    self.x + dl * cos_h - dw * sin_h,
                    self.y + dl * sin_h + dw * cos_h,
                )
            )
        return corners

    def corners_3d(self) -> List[Tuple[float, float, float]]:
        """The 8 corners of the object's 3-D box (footprint at z=0 and z=h)."""
        base = self.footprint_corners()
        return [(cx, cy, 0.0) for cx, cy in base] + [
            (cx, cy, self.height) for cx, cy in base
        ]

    def distance_to(self, x: float, y: float) -> float:
        """Ground-plane distance from this object to ``(x, y)``."""
        return math.hypot(self.x - x, self.y - y)
