"""Central stage of the Batch-Aware Latency-Balanced algorithm.

A faithful implementation of the paper's Algorithm 1:

1. Initialize each camera's running latency to its full-frame time
   ``t_i^full`` (the key-frame cost it just paid).
2. Visit objects by non-decreasing coverage-set size, ties broken in
   favour of larger target size — least-flexible objects first.
3. For each object, prefer a camera with an *incomplete batch* of the
   object's target size (choose the one with the largest relative batch
   capacity, Definition 4); filling an incomplete batch is free under the
   paper's latency model.
4. Otherwise open a new batch on the camera minimizing
   ``L_i + t_i^{s_ij}`` (not merely min ``L_i`` — heterogeneous devices
   make those different), and charge that camera ``t_i^{s_ij}``.

Complexity: max(O(N log N), O(M N)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.problem import Assignment, MVSInstance, SchedObject
from repro.obs.trace import get_tracer


@dataclass
class BALBResult:
    """Output of the central stage."""

    assignment: Assignment
    camera_latencies: Dict[int, float]
    priority_order: Tuple[int, ...]  # camera ids, increasing assigned latency


@dataclass
class _BatchTracker:
    """Open (incomplete) batch bookkeeping for one camera."""

    open_slots: Dict[int, int] = field(default_factory=dict)  # size -> free slots

    def has_incomplete(self, size: int) -> bool:
        return self.open_slots.get(size, 0) > 0

    def fill_slot(self, size: int) -> None:
        slots = self.open_slots.get(size, 0)
        if slots <= 0:
            raise RuntimeError(f"no incomplete batch of size {size}")
        self.open_slots[size] = slots - 1

    def open_new(self, size: int, batch_limit: int) -> None:
        # A new batch holds this object, leaving limit - 1 free slots.
        self.open_slots[size] = self.open_slots.get(size, 0) + batch_limit - 1


def order_objects(objects: List[SchedObject]) -> List[SchedObject]:
    """Algorithm 1 line 2: sort by |C_j| ascending, ties to larger size.

    The tie-break size of an object is its largest target size across its
    coverage set (bigger regions are costlier, so they are placed first).
    """
    return sorted(
        objects,
        key=lambda o: (len(o.coverage), -max(o.target_sizes.values()), o.key),
    )


def balb_central(
    instance: MVSInstance,
    include_full_frame: bool = True,
    batch_aware: bool = True,
    coverage_ordered: bool = True,
) -> BALBResult:
    """Run the central-stage BALB assignment on an MVS instance.

    ``batch_aware`` and ``coverage_ordered`` exist for the ablation
    benches: disabling them falls back to min-latency placement and
    arbitrary object order respectively.
    """
    with get_tracer().span(
        "balb.central",
        n_objects=len(instance.objects),
        n_cameras=len(instance.camera_ids),
    ):
        return _balb_central(
            instance, include_full_frame, batch_aware, coverage_ordered
        )


def _balb_central(
    instance: MVSInstance,
    include_full_frame: bool,
    batch_aware: bool,
    coverage_ordered: bool,
) -> BALBResult:
    latencies: Dict[int, float] = {
        cam: (instance.profiles[cam].t_full if include_full_frame else 0.0)
        for cam in instance.camera_ids
    }
    trackers: Dict[int, _BatchTracker] = {
        cam: _BatchTracker() for cam in instance.camera_ids
    }
    assignment: Assignment = {}

    ordered = (
        order_objects(list(instance.objects))
        if coverage_ordered
        else sorted(instance.objects, key=lambda o: o.key)
    )
    for obj in ordered:
        chosen: Optional[int] = None
        if batch_aware:
            chosen = _camera_with_incomplete_batch(instance, trackers, obj)
        if chosen is not None:
            trackers[chosen].fill_slot(obj.size_on(chosen))
        else:
            chosen = _camera_minimizing_updated_latency(instance, latencies, obj)
            size = obj.size_on(chosen)
            profile = instance.profiles[chosen]
            latencies[chosen] += profile.t_size(size)
            trackers[chosen].open_new(size, profile.batch_limit(size))
        assignment[obj.key] = chosen

    priority = tuple(
        sorted(instance.camera_ids, key=lambda cam: (latencies[cam], cam))
    )
    return BALBResult(
        assignment=assignment,
        camera_latencies=dict(latencies),
        priority_order=priority,
    )


def _camera_with_incomplete_batch(
    instance: MVSInstance,
    trackers: Dict[int, _BatchTracker],
    obj: SchedObject,
) -> Optional[int]:
    """Line 4-7: the coverage camera with the largest relative capacity in
    an incomplete batch of the object's target size, if any exists.
    """
    best_cam: Optional[int] = None
    best_capacity = -1.0
    for cam in obj.sorted_coverage:
        size = obj.size_on(cam)
        tracker = trackers[cam]
        if not tracker.has_incomplete(size):
            continue
        limit = instance.profiles[cam].batch_limit(size)
        relative_capacity = tracker.open_slots[size] / limit
        if relative_capacity > best_capacity:
            best_capacity = relative_capacity
            best_cam = cam
    return best_cam


def _camera_minimizing_updated_latency(
    instance: MVSInstance,
    latencies: Dict[int, float],
    obj: SchedObject,
) -> int:
    """Line 10: argmin over C_j of ``L_i + t_i^{s_ij}``."""
    best_cam = -1
    best_latency = float("inf")
    for cam in obj.sorted_coverage:
        candidate = latencies[cam] + instance.profiles[cam].t_size(obj.size_on(cam))
        if candidate < best_latency:
            best_latency = candidate
            best_cam = cam
    return best_cam
