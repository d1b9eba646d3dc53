"""The Multi-View Scheduling (MVS) problem (Section III-A/B).

An MVS instance consists of a camera set with profiled latencies and an
object set with coverage sets and per-camera target sizes. An assignment
maps objects to the cameras responsible for tracking them; its cost is the
*system latency*: the maximum over cameras of the summed batch execution
latencies for one frame (Definitions 1-3).
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.devices.profiler import DeviceProfile


@dataclass(frozen=True)
class SchedObject:
    """One object ``o_j`` to be scheduled.

    ``target_sizes`` maps each camera in the coverage set ``C_j`` to the
    object's quantized target size ``s_ij`` on that camera.
    """

    key: int
    target_sizes: Mapping[int, int]

    def __post_init__(self) -> None:
        if not self.target_sizes:
            raise ValueError(f"object {self.key} has an empty coverage set")
        object.__setattr__(self, "target_sizes", dict(self.target_sizes))
        # The BALB inner loops scan coverage in sorted order once per
        # object per candidate step; cache the sort at construction.
        object.__setattr__(
            self, "_sorted_coverage", tuple(sorted(self.target_sizes))
        )

    @property
    def coverage(self) -> FrozenSet[int]:
        """The coverage set C_j: cameras that can see this object."""
        return frozenset(self.target_sizes)

    @property
    def sorted_coverage(self) -> Tuple[int, ...]:
        """The coverage set in ascending camera-id order (precomputed)."""
        return self._sorted_coverage  # type: ignore[attr-defined, no-any-return]

    def size_on(self, camera_id: int) -> int:
        """The quantized target size ``s_ij`` on one coverage camera."""
        try:
            return self.target_sizes[camera_id]
        except KeyError:
            raise KeyError(
                f"camera {camera_id} is not in object {self.key}'s coverage"
            ) from None


@dataclass(frozen=True)
class MVSInstance:
    """A complete scheduling instance: cameras + objects."""

    profiles: Mapping[int, DeviceProfile]
    objects: Tuple[SchedObject, ...]

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError("instance needs at least one camera")
        object.__setattr__(self, "profiles", dict(self.profiles))
        object.__setattr__(self, "objects", tuple(self.objects))
        cam_ids = set(self.profiles)
        for obj in self.objects:
            extra = obj.coverage - cam_ids
            if extra:
                raise ValueError(
                    f"object {obj.key} covered by unknown cameras {sorted(extra)}"
                )

    @property
    def camera_ids(self) -> List[int]:
        return sorted(self.profiles)


Assignment = Dict[int, int]
"""Single-camera assignment: ``{object_key: camera_id}``.

The general Definition 2 allows an object on multiple cameras; BALB and
all baselines here emit exactly one camera per object, which is always
feasible and never worse for the min-max objective.
"""


def is_feasible(instance: MVSInstance, assignment: Assignment) -> bool:
    """Check Definition 2: every object on >= 1 camera that can see it,
    and never on a camera that cannot.
    """
    keys = {obj.key for obj in instance.objects}
    if set(assignment) != keys:
        return False
    for obj in instance.objects:
        if assignment[obj.key] not in obj.coverage:
            return False
    return True


def camera_size_counts(
    instance: MVSInstance, assignment: Assignment, camera_id: int
) -> Dict[int, int]:
    """``{target_size: n_objects}`` assigned to ``camera_id``."""
    counts: Dict[int, int] = {}
    for obj in instance.objects:
        if assignment.get(obj.key) == camera_id:
            size = obj.size_on(camera_id)
            counts[size] = counts.get(size, 0) + 1
    return counts


def camera_latency(
    instance: MVSInstance,
    assignment: Assignment,
    camera_id: int,
    include_full_frame: bool = False,
) -> float:
    """Definition 1: summed batch latencies on one camera for one frame.

    Same-size objects are batched greedily (the provably minimal number of
    batches per size), so the latency of camera ``i`` is
    ``sum_s ceil(n_s / B_i^s) * t_i^s``. With ``include_full_frame`` the
    key-frame inspection cost ``t_i^full`` is added — this mirrors the
    initialization of Algorithm 1.
    """
    profile = instance.profiles[camera_id]
    total = profile.t_full if include_full_frame else 0.0
    for size, count in camera_size_counts(instance, assignment, camera_id).items():
        n_batches = math.ceil(count / profile.batch_limit(size))
        total += n_batches * profile.t_size(size)
    return total


def system_latency(
    instance: MVSInstance,
    assignment: Assignment,
    include_full_frame: bool = False,
) -> float:
    """The MVS objective: max camera latency (Definition 3)."""
    return max(
        camera_latency(instance, assignment, cam, include_full_frame)
        for cam in instance.camera_ids
    )
