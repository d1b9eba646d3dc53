"""Imperfect camera synchronization (paper Section V).

"The approach requires the cameras to be approximately synchronized ...
while some cameras are processing the 'current' scene, others might still
be working on older versions of the scene." This module models that
effect: each camera observes the world with a per-camera *lag* of whole
frames, drawn from a configurable skew model. A lagging camera detects
against an older frame of the run's world trajectory
(:mod:`repro.runtime.trajectory`) — which is exactly how handover
anomalies arise (one camera believes an object left while the lagging
camera has not seen it arrive yet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.world.entities import WorldObject


@dataclass(frozen=True)
class SkewModel:
    """Per-camera processing lag, in whole frames.

    ``max_lag_frames`` bounds the skew; each camera is assigned a fixed
    lag sampled uniformly from ``[0, max_lag_frames]`` (static skew, the
    common case for mismatched pipeline depths).
    """

    max_lag_frames: int = 2

    def __post_init__(self) -> None:
        if self.max_lag_frames < 0:
            raise ValueError("max_lag_frames must be non-negative")

    def sample_lags(
        self, camera_ids: Sequence[int], rng: np.random.Generator
    ) -> Dict[int, int]:
        """Draw a fixed per-camera lag for every camera id."""
        return {
            cam: int(rng.integers(0, self.max_lag_frames + 1))
            for cam in sorted(camera_ids)
        }


def drifted_lag(static_lag: int, drift_lag: int, depth: int) -> int:
    """Effective observation lag of a camera whose clock is drifting.

    Generalizes the static :class:`SkewModel` lag to a time-varying one:
    the ``clock_drift`` fault adds ``drift_lag`` frames on top of the
    camera's fixed skew, clamped to ``depth - 1``: the deepest lag the
    run sized its kept frames for.
    """
    if static_lag < 0 or drift_lag < 0:
        raise ValueError("lags must be non-negative")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return min(static_lag + drift_lag, depth - 1)


def snapshot_objects(objects: Sequence[WorldObject]) -> List[WorldObject]:
    """Deep-enough copies of ``objects``: positions and kinematics.

    A kept trajectory frame is one, and the ``sensor_freeze`` fault uses
    one to capture the frame a frozen camera keeps repeating: later world
    mutation must not leak into a kept frame or a frozen view.
    """
    return [_copy_object(o) for o in objects]


def _copy_object(obj: WorldObject) -> WorldObject:
    return WorldObject(
        object_id=obj.object_id,
        object_class=obj.object_class,
        x=obj.x,
        y=obj.y,
        heading=obj.heading,
        speed=obj.speed,
        length=obj.length,
        width=obj.width,
        height=obj.height,
        spawn_time=obj.spawn_time,
        route_id=obj.route_id,
        route_progress=obj.route_progress,
        alive=obj.alive,
        attributes=dict(obj.attributes),
    )
