"""Distributed stage of BALB (Section III-C-2).

Runs independently on every camera at every regular frame, with **no
cross-camera communication**: decisions rely only on information
synchronized at the last key frame — the camera priority order, the cell
masks, and the object-to-camera assignment. Two rules:

* **New objects** (arrived after the key frame): a camera tracks a new
  object iff it is the highest-priority camera among those covering the
  object's cell — "each camera only tracks new objects at cells that are
  unobservable from all higher priority cameras".
* **Departures**: when an object's assigned camera can no longer see it
  (tested through the synchronized masks), the highest-priority camera in
  the object's *remaining* coverage set takes over.

Every camera evaluates the same deterministic rules on the same
synchronized inputs, so their decisions are consistent without messages.
Complexity per frame: O(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.masks import CameraMask, priority_owner
from repro.geometry.box import BBox


@dataclass
class DistributedPolicy:
    """The per-camera distributed decision rules for one horizon."""

    camera_id: int
    mask: CameraMask
    priority_order: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.camera_id not in self.priority_order:
            raise ValueError(
                f"camera {self.camera_id} missing from priority order"
            )

    # ------------------------------------------------------------------
    def should_track_new_object(self, box: BBox) -> bool:
        """Rule 1: track a newly appeared object at ``box`` on this camera?"""
        coverage = self.mask.coverage_of(box)
        return priority_owner(coverage, self.priority_order) == self.camera_id

    def assigned_camera_lost_object(
        self, box_on_me: BBox, assigned_camera: int
    ) -> bool:
        """Has ``assigned_camera`` lost sight of the object at ``box_on_me``?

        Uses the cell mask: if the assigned camera is not in the coverage
        set of the object's current cell, it can no longer see the object.
        """
        if assigned_camera == self.camera_id:
            return False
        coverage = self.mask.coverage_of(box_on_me)
        return assigned_camera not in coverage

    def should_take_over(self, box_on_me: BBox, assigned_camera: int) -> bool:
        """Rule 2: take over an object whose assigned camera lost it?"""
        if not self.assigned_camera_lost_object(box_on_me, assigned_camera):
            return False
        coverage = self.mask.coverage_of(box_on_me)
        new_owner = priority_owner(
            coverage, self.priority_order, exclude=(assigned_camera,)
        )
        return new_owner == self.camera_id
