"""Quality-aware scheduling extension (paper Section V).

Two of the paper's future-work notes point the same way: a camera's view
of an object has a *quality* (closer objects are easier to classify;
viewing distance and angle matter), and the scheduler should "optimize the
quality-efficiency tradeoff, instead of purely minimizing the frame
processing latency".

This module provides :func:`quality_aware_central`, a generalization of
the central stage whose camera choice blends latency balancing with the
caller's per-view quality scores through a single trade-off knob ``alpha``
(0 = pure BALB, 1 = pure best-view).
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Dict, Mapping, Tuple

from repro.core.balb import order_objects
from repro.core.problem import Assignment, MVSInstance, is_feasible

QualityMap = Mapping[Tuple[int, int], float]
"""``{(object_key, camera_id): quality in [0, 1]}``."""


@dataclass
class QualityResult:
    """Output of the quality-aware central stage."""

    assignment: Assignment
    camera_latencies: Dict[int, float]
    mean_quality: float
    min_quality: float


def quality_aware_central(
    instance: MVSInstance,
    qualities: QualityMap,
    alpha: float = 0.3,
    include_full_frame: bool = True,
) -> QualityResult:
    """Latency-balanced assignment with a quality trade-off.

    Camera choice minimizes ``(1 - alpha) * normalized_latency -
    alpha * quality``: at ``alpha = 0`` this is the non-batch-aware BALB
    placement rule; at ``alpha = 1`` every object goes to its best view
    regardless of load. Unknown (object, camera) pairs default to quality
    0.5.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    latencies: Dict[int, float] = {
        cam: (instance.profiles[cam].t_full if include_full_frame else 0.0)
        for cam in instance.camera_ids
    }
    counts: Dict[int, Dict[int, int]] = {cam: {} for cam in instance.camera_ids}
    assignment: Assignment = {}
    chosen_quality: Dict[int, float] = {}

    def latency_with(cam: int, size: int) -> float:
        profile = instance.profiles[cam]
        counts[cam][size] = counts[cam].get(size, 0) + 1
        total = latencies[cam]
        batched = 0.0
        for s, count in counts[cam].items():
            batched += math.ceil(
                count / profile.batch_limit(s)
            ) * profile.t_size(s)
        counts[cam][size] -= 1
        if counts[cam][size] == 0:
            del counts[cam][size]
        return total + batched

    # Normalize latency against the worst single-camera horizon cost so
    # the two objectives share a scale.
    norm = max(p.t_full for p in instance.profiles.values()) or 1.0

    for obj in order_objects(list(instance.objects)):
        best_cam = -1
        best_score = float("inf")
        for cam in sorted(obj.coverage):
            size = obj.size_on(cam)
            quality = qualities.get((obj.key, cam), 0.5)
            score = (1.0 - alpha) * (latency_with(cam, size) / norm) - (
                alpha * quality
            )
            if score < best_score:
                best_score = score
                best_cam = cam
        size = obj.size_on(best_cam)
        counts[best_cam][size] = counts[best_cam].get(size, 0) + 1
        assignment[obj.key] = best_cam
        chosen_quality[obj.key] = qualities.get((obj.key, best_cam), 0.5)

    # Fold batched costs into the final latency bookkeeping.
    final_latencies = {}
    for cam in instance.camera_ids:
        profile = instance.profiles[cam]
        total = latencies[cam]
        for s, count in counts[cam].items():
            total += math.ceil(
                count / profile.batch_limit(s)
            ) * profile.t_size(s)
        final_latencies[cam] = total

    assert is_feasible(instance, assignment) or not instance.objects
    values = list(chosen_quality.values())
    return QualityResult(
        assignment=assignment,
        camera_latencies=final_latencies,
        mean_quality=sum(values) / len(values) if values else 1.0,
        min_quality=min(values) if values else 1.0,
    )
