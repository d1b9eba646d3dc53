"""Exact MVS solver for small instances.

Branch-and-bound over per-object camera choices, used to measure BALB's
approximation quality (the MVS problem is strongly NP-hard, Claim 1, so
this is only tractable for small N). Objects are explored in the same
least-flexible-first order BALB uses, which tightens pruning.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.core.balb import balb_central, order_objects
from repro.core.problem import Assignment, MVSInstance, system_latency


def optimal_assignment(
    instance: MVSInstance,
    include_full_frame: bool = True,
    max_objects: int = 14,
) -> Tuple[Assignment, float]:
    """Exhaustively find a min-system-latency assignment.

    Raises ``ValueError`` for instances above ``max_objects`` to protect
    against accidental exponential blowups.
    """
    n = len(instance.objects)
    if n > max_objects:
        raise ValueError(
            f"instance has {n} objects; optimal solver capped at {max_objects}"
        )
    if n == 0:
        base = {
            cam: (instance.profiles[cam].t_full if include_full_frame else 0.0)
            for cam in instance.camera_ids
        }
        return {}, max(base.values())

    # Seed the bound with BALB's solution: branch-and-bound then only
    # explores assignments that could beat it.
    seed = balb_central(instance, include_full_frame=include_full_frame)
    best_assignment = dict(seed.assignment)
    best_latency = system_latency(
        instance, best_assignment, include_full_frame=include_full_frame
    )

    ordered = order_objects(list(instance.objects))
    base_latency = {
        cam: (instance.profiles[cam].t_full if include_full_frame else 0.0)
        for cam in instance.camera_ids
    }
    counts: Dict[int, Dict[int, int]] = {cam: {} for cam in instance.camera_ids}
    current: Assignment = {}

    def cam_latency(cam: int) -> float:
        profile = instance.profiles[cam]
        total = base_latency[cam]
        for size, count in counts[cam].items():
            total += math.ceil(count / profile.batch_limit(size)) * profile.t_size(
                size
            )
        return total

    def recurse(idx: int, current_max: float) -> None:
        nonlocal best_assignment, best_latency
        if current_max >= best_latency:
            return  # prune: already no better than the incumbent
        if idx == len(ordered):
            best_latency = current_max
            best_assignment = dict(current)
            return
        obj = ordered[idx]
        for cam in sorted(obj.coverage):
            size = obj.size_on(cam)
            counts[cam][size] = counts[cam].get(size, 0) + 1
            current[obj.key] = cam
            recurse(idx + 1, max(current_max, cam_latency(cam)))
            counts[cam][size] -= 1
            if counts[cam][size] == 0:
                del counts[cam][size]
            del current[obj.key]

    recurse(0, max(base_latency.values()))
    return best_assignment, best_latency
