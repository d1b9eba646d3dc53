"""Redundant multi-camera assignment (paper Section V extensions).

The paper's limitations section proposes assigning an object to *multiple*
cameras when association confidence is low or dynamic occlusion threatens
a single viewpoint: "we may allocate multiple cameras to track the same
object" / "assigning objects to multiple cameras with sufficiently
different vantage points can also reduce occlusion-related failures".

:func:`balb_redundant` generalizes the central stage: it first runs plain
BALB (primary assignment), then adds up to ``k - 1`` extra replicas per
object, each placed with the same batch-aware latency-balanced rule,
preferring the camera whose vantage point differs most from the ones
already chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.balb import balb_central
from repro.core.problem import MVSInstance, SchedObject

MultiAssignment = Dict[int, Tuple[int, ...]]
"""``{object_key: (camera_id, ...)}`` — first entry is the primary."""


@dataclass
class RedundantResult:
    """Output of the redundant central stage."""

    assignment: MultiAssignment
    camera_latencies: Dict[int, float]
    priority_order: Tuple[int, ...]


def balb_redundant(
    instance: MVSInstance,
    k: int = 2,
    include_full_frame: bool = True,
    vantage_positions: Optional[Mapping[int, Tuple[float, float]]] = None,
) -> RedundantResult:
    """BALB with up to ``k`` cameras per object.

    The primary assignment is exactly Algorithm 1. Replicas are then added
    object-by-object (same least-flexible-first order): each replica goes
    to the unused coverage camera minimizing ``L_i + t_i^{s_ij}``, with a
    vantage-diversity bonus when camera positions are supplied — cameras
    far from the already-assigned ones are preferred, which is the paper's
    occlusion-robustness argument.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = balb_central(instance, include_full_frame=include_full_frame)
    latencies = dict(base.camera_latencies)
    assignment: MultiAssignment = {
        key: (cam,) for key, cam in base.assignment.items()
    }
    if k == 1:
        return RedundantResult(
            assignment=assignment,
            camera_latencies=latencies,
            priority_order=base.priority_order,
        )

    # Largest coverage first for replicas: flexible objects gain the most
    # from redundancy and constrain the remaining placements the least.
    ordered = sorted(
        instance.objects, key=lambda o: (-len(o.coverage), o.key)
    )
    for _ in range(k - 1):
        for obj in ordered:
            used = assignment[obj.key]
            candidates = sorted(obj.coverage - set(used))
            if not candidates:
                continue
            best_cam = _best_replica_camera(
                instance, latencies, obj, used, candidates, vantage_positions
            )
            size = obj.size_on(best_cam)
            latencies[best_cam] += instance.profiles[best_cam].t_size(size)
            assignment[obj.key] = used + (best_cam,)

    priority = tuple(
        sorted(instance.camera_ids, key=lambda cam: (latencies[cam], cam))
    )
    return RedundantResult(
        assignment=assignment,
        camera_latencies=latencies,
        priority_order=priority,
    )


def _best_replica_camera(
    instance: MVSInstance,
    latencies: Dict[int, float],
    obj: SchedObject,
    used: Tuple[int, ...],
    candidates: List[int],
    vantage_positions: Optional[Mapping[int, Tuple[float, float]]],
) -> int:
    """Min updated latency, discounted by vantage-point diversity."""
    best_cam = candidates[0]
    best_score = float("inf")
    max_lat = max(latencies.values()) or 1.0
    for cam in candidates:
        updated = latencies[cam] + instance.profiles[cam].t_size(
            obj.size_on(cam)
        )
        score = updated
        if vantage_positions:
            min_dist = min(
                _distance(vantage_positions.get(cam), vantage_positions.get(u))
                for u in used
            )
            # Diversity bonus: up to 20% latency discount for the farthest
            # vantage, scaled by the current system latency.
            score -= 0.2 * max_lat * min(min_dist / 50.0, 1.0)
        if score < best_score:
            best_score = score
            best_cam = cam
    return best_cam


def _distance(
    a: Optional[Tuple[float, float]], b: Optional[Tuple[float, float]]
) -> float:
    if a is None or b is None:
        return 0.0
    return math.hypot(a[0] - b[0], a[1] - b[1])
