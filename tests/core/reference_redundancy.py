"""Independent checks on multi-camera (redundant) assignments.

:func:`repro.core.redundancy.balb_redundant` returns each object's
cameras; these recompute Definition 2's feasibility and Definition 3's
latency for such an assignment from the instance alone, so the tests on
``balb_redundant`` do not grade it with its own bookkeeping.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.core.problem import MVSInstance

MultiAssignment = Dict[int, Sequence[int]]


def multi_camera_latency(
    instance: MVSInstance,
    assignment: MultiAssignment,
    camera_id: int,
    include_full_frame: bool = False,
) -> float:
    """Per-frame latency of one camera under a multi-assignment."""
    profile = instance.profiles[camera_id]
    counts: Dict[int, int] = {}
    for obj in instance.objects:
        if camera_id in assignment.get(obj.key, ()):
            size = obj.size_on(camera_id)
            counts[size] = counts.get(size, 0) + 1
    total = profile.t_full if include_full_frame else 0.0
    for size, count in counts.items():
        total += math.ceil(count / profile.batch_limit(size)) * profile.t_size(size)
    return total


def multi_system_latency(
    instance: MVSInstance,
    assignment: MultiAssignment,
    include_full_frame: bool = False,
) -> float:
    """Max per-camera latency under a multi-assignment (Definition 3)."""
    return max(
        multi_camera_latency(instance, assignment, cam, include_full_frame)
        for cam in instance.camera_ids
    )


def is_feasible_multi(instance: MVSInstance, assignment: MultiAssignment) -> bool:
    """Definition 2 for multi-assignments: >= 1 camera each, all in C_j,
    and no camera repeated for the same object."""
    keys = {obj.key for obj in instance.objects}
    if set(assignment) != keys:
        return False
    for obj in instance.objects:
        cams = assignment[obj.key]
        if not cams or len(set(cams)) != len(cams):
            return False
        if any(cam not in obj.coverage for cam in cams):
            return False
    return True
