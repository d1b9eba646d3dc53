"""The rolling snapshot buffer, frozen as the lag oracle of trajectories.

:class:`WorldHistory` is how the pipeline served lagging cameras before
every run read its frames from a world trajectory
(:mod:`repro.runtime.trajectory`): each frame pushed a copy of the live
object list, and a camera ``lag`` frames behind read ``view(lag)``.
``tests/runtime/test_trajectory.py`` holds every trajectory's lagged
views to it by value.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Sequence

from repro.runtime.synchronization import snapshot_objects
from repro.world.entities import WorldObject


class WorldHistory:
    """A rolling buffer of world snapshots for lagged observation.

    Snapshots are deep-enough copies of the object list (positions and
    kinematics), so later world mutation does not alter history.
    """

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._buffer: Deque[List[WorldObject]] = deque(maxlen=depth)

    def push(self, objects: Sequence[WorldObject]) -> None:
        """Record the current object list as the newest snapshot."""
        self._buffer.append(snapshot_objects(objects))

    def view(self, lag_frames: int) -> List[WorldObject]:
        """The object list ``lag_frames`` ago (clamped to buffer depth).

        ``lag_frames = 0`` is the most recent snapshot. Before the buffer
        fills, the oldest available snapshot is returned.
        """
        if lag_frames < 0:
            raise ValueError("lag_frames must be non-negative")
        if not self._buffer:
            return []
        index = len(self._buffer) - 1 - lag_frames
        index = max(0, index)
        return self._buffer[index]

    def __len__(self) -> int:
        return len(self._buffer)
