"""Per-camera regular-frame policies for the four scheduling modes.

A policy answers two questions each regular frame, per camera:

* ``inspect_track`` — should this camera spend DNN time on this track?
* ``allow_new_region`` — should this camera start tracking a new object
  that appeared at this location?

The four modes of the paper's evaluation map onto these hooks:
BALB (central + distributed), BALB-Cen (central only), BALB-Ind
(no coordination) and Static Partitioning.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

from repro.core.distributed import DistributedPolicy
from repro.core.masks import CameraMask, capacity_owner
from repro.geometry.box import BBox


class TrackView:
    """The minimal track info a policy sees (decouples policies from nodes)."""

    __slots__ = ("track_id", "bbox", "is_assigned", "assigned_camera")

    def __init__(
        self,
        track_id: int,
        bbox: BBox,
        is_assigned: bool,
        assigned_camera: Optional[int],
    ) -> None:
        self.track_id = track_id
        self.bbox = bbox
        self.is_assigned = is_assigned
        self.assigned_camera = assigned_camera


class RegularFramePolicy(abc.ABC):
    """Decision rules one camera applies on regular frames."""

    @abc.abstractmethod
    def inspect_track(self, track: TrackView) -> bool:
        """Spend DNN inspection on this track this frame?"""

    @abc.abstractmethod
    def allow_new_region(self, box: BBox) -> bool:
        """Start tracking a new object appearing at ``box``?"""


class BALBPolicy(RegularFramePolicy):
    """Full BALB: central assignment + the distributed stage rules."""

    def __init__(self, distributed: DistributedPolicy) -> None:
        self.distributed = distributed

    def inspect_track(self, track: TrackView) -> bool:
        if track.is_assigned:
            return True
        # Shadow track: take over only when its assigned camera lost it
        # and this camera is the highest-priority remaining observer.
        if track.assigned_camera is None:
            return False
        return self.distributed.should_take_over(
            track.bbox, track.assigned_camera
        )

    def allow_new_region(self, box: BBox) -> bool:
        return self.distributed.should_track_new_object(box)


class CentralOnlyPolicy(RegularFramePolicy):
    """BALB-Cen: the central assignment only, no distributed stage."""

    def inspect_track(self, track: TrackView) -> bool:
        return track.is_assigned

    def allow_new_region(self, box: BBox) -> bool:
        return False


class IndependentPolicy(RegularFramePolicy):
    """BALB-Ind: no coordination; track everything this camera sees."""

    def inspect_track(self, track: TrackView) -> bool:
        return True

    def allow_new_region(self, box: BBox) -> bool:
        return True


class StaticPartitioningPolicy(RegularFramePolicy):
    """SP baseline: fixed capacity-proportional region ownership.

    A camera inspects exactly the objects whose current position falls in
    its statically allocated cells, regardless of load (Section IV-C).
    """

    def __init__(
        self,
        camera_id: int,
        mask: CameraMask,
        capacities: Dict[int, float],
    ) -> None:
        self.camera_id = camera_id
        self.mask = mask
        self.capacities = dict(capacities)

    def _owns(self, box: BBox) -> bool:
        cell = self.mask.cell_of(box)
        coverage = self.mask.coverage_of(box)
        return (
            capacity_owner(coverage, self.capacities, cell, self.mask.nx)
            == self.camera_id
        )

    def inspect_track(self, track: TrackView) -> bool:
        return self._owns(track.bbox)

    def allow_new_region(self, box: BBox) -> bool:
        return self._owns(box)
