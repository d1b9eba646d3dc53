"""Inter-object occlusion (paper Section V, "Dynamic occlusion").

The base camera model treats visibility as purely geometric. This module
adds the dynamic effect the paper lists as a limitation of single-camera
assignment: one object can block another from a camera's viewpoint, while
a differently placed camera still sees it. The redundant-assignment
extension (:mod:`repro.core.redundancy`) uses this to motivate tracking an
object from k > 1 cameras.

Occlusion is computed in image space with depth ordering: an object's
*visible fraction* is the share of its projected box not covered by boxes
of strictly closer objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cameras.camera import Camera
from repro.cameras.projection import camera_boxes
from repro.geometry.box import BBox
from repro.world.entities import WorldObject


def visible_fractions(
    camera: Camera,
    objects: Sequence[WorldObject],
    boxes: Optional[Mapping[int, BBox]] = None,
) -> Dict[int, float]:
    """Per-object visible fraction in ``camera``'s view (0 = fully hidden).

    Only objects the camera geometrically sees are returned. Coverage by
    closer objects is accumulated with a union upper bound (summed overlap
    capped at 1), which is exact for disjoint occluders and conservative
    when occluders themselves overlap. ``boxes`` is the frame's cached
    projection table, built here when not supplied; the coverage
    accumulation stays scalar, in object order.
    """
    if boxes is None:
        boxes = camera_boxes(camera, objects)
    projected: List[Tuple[int, float, BBox]] = []
    for obj in objects:
        box = boxes.get(obj.object_id)
        if box is None:
            continue
        distance = obj.distance_to(camera.pose.x, camera.pose.y)
        projected.append((obj.object_id, distance, box))

    fractions: Dict[int, float] = {}
    for oid, distance, box in projected:
        if box.area <= 0:
            fractions[oid] = 0.0
            continue
        covered = 0.0
        for other_id, other_dist, other_box in projected:
            if other_id == oid or other_dist >= distance:
                continue
            covered += box.intersection(other_box)
        fractions[oid] = max(0.0, 1.0 - covered / box.area)
    return fractions


@dataclass(frozen=True)
class OcclusionModel:
    """Visibility policy on top of raw fractions.

    ``visibility_threshold`` is the fraction below which an object counts
    as effectively invisible to the camera; between the threshold and 1.0
    the detector's miss probability is scaled up smoothly.
    """

    visibility_threshold: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility_threshold < 1.0:
            raise ValueError("visibility_threshold must be in [0, 1)")

    def effectively_visible(self, fraction: float) -> bool:
        """Is a view with this visible fraction usable at all?"""
        return fraction >= self.visibility_threshold

    def miss_multiplier(self, fraction: float) -> float:
        """Detector miss-probability multiplier for a partially hidden box.

        1.0 at fully visible, growing smoothly to a hard miss below the
        threshold.
        """
        if fraction >= 1.0:
            return 1.0
        if fraction < self.visibility_threshold:
            return float("inf")  # treated as a guaranteed miss
        span = 1.0 - self.visibility_threshold
        hidden = (1.0 - fraction) / span
        return 1.0 + 8.0 * hidden**2
