"""World trajectories: where a run's frames come from, and who shares them.

A run reads its frames from a :class:`Trajectory`: the sequence of
``(objects, projection cache)`` pairs that a post-warm-up world passes
through, one per frame. Frame ``k`` is the world after ``k + 1`` steps,
and a camera that lags ``lag`` frames behind reads frame
``max(k - lag, 0)``, so a lagged view is projected once, when it was the
current frame.

A trajectory is *private* or *recorded*:

* a private trajectory owns its world and keeps only the frames its
  lagging cameras can still reach. Without lag it hands out the live
  object list and keeps nothing older; with lag it keeps the last
  ``depth`` frames as snapshot copies. Every run outside a sharing scope,
  and every checkpointing run, gets one;
* a recorded trajectory keeps every frame as a snapshot copy. Inside a
  :func:`share_worlds` scope, every run with the same scenario object,
  world seed, warm-up and frame interval reads one, so each frame is
  stepped and projected only the first time any run reaches it — the
  way every policy of the paper runs over the same recorded video.

The scope is explicit because sharing is a property of a command that
runs several policies over one world (a report, ``repro compare``), not
of a run: a process-wide memo would keep every run's frames alive and
would let a repeated run skip simulation it is meant to measure.

Frames are read-only. Nothing may mutate a frame's objects or its
projection tables; a recorded frame's objects are copies, never the live
list.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
import pickle
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.cameras.camera import Camera
from repro.cameras.projection import FrameProjectionCache
from repro.runtime.synchronization import snapshot_objects
from repro.scenarios.builder import Scenario
from repro.world.entities import WorldObject
from repro.world.world import World

#: One frame: the objects a camera sees and their projection tables.
Frame = Tuple[List[WorldObject], FrameProjectionCache]


class Trajectory:
    """The frames one world passes through from its post-warm-up state.

    ``depth`` is how many frames are kept: ``None`` keeps every frame (a
    recorded trajectory), ``1`` hands out the live object list, and more
    keeps that many snapshot copies. Frames are stepped on first request
    and must be requested in an order that never reaches behind the
    kept window.
    """

    def __init__(
        self,
        world: World,
        cameras: Sequence[Camera],
        dt: float,
        depth: Optional[int] = None,
    ) -> None:
        if depth is not None and depth < 1:
            raise ValueError("depth must be >= 1")
        self._world = world
        self._cameras = tuple(cameras)
        self._dt = dt
        self._depth = depth
        self._frames: List[Frame] = []
        self._first = 0  # index of self._frames[0]

    def frame(self, index: int) -> Frame:
        """Frame ``index``, stepping the world up to it the first time."""
        while self._first + len(self._frames) <= index:
            self._record()
        if index < self._first:
            raise IndexError(
                f"frame {index} left the kept window at {self._first}"
            )
        return self._frames[index - self._first]

    def view(self, index: int, lag: int) -> Frame:
        """What a camera ``lag`` frames behind sees on frame ``index``."""
        return self.frame(max(index - lag, 0))

    def _record(self) -> None:
        # Drop the frame that leaves the window before stepping, so it
        # dies before the step allocates.
        if self._depth is not None and len(self._frames) == self._depth:
            del self._frames[0]
            self._first += 1
        world = self._world
        world.step(self._dt)
        objects = world.objects
        if self._depth != 1:
            objects = snapshot_objects(objects)
        self._frames.append((objects, FrameProjectionCache(self._cameras)))


#: Post-warmup world snapshots, keyed by (scenario identity, seed,
#: warmup_s, dt). Warming a world replays a few hundred identical
#: simulation steps before every run; the pickle round-trip restores
#: float64 coordinates and Generator state exactly, so a restored world
#: is interchangeable with a freshly warmed one. Every caller — the
#: first included — receives the round-tripped object, keeping run
#: provenance uniform. Bounded LRU so long test sessions with many
#: throwaway scenarios cannot accumulate snapshots.
_WARM_WORLD_CAP = 8
_WARM_WORLD_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()


def _warmed_world(
    scenario: Scenario, seed: int, warmup_s: float, dt: float
) -> World:
    """A freshly restored copy of the scenario's post-warmup world."""
    key = (id(scenario), seed, warmup_s, dt)
    entry = _WARM_WORLD_MEMO.get(key)
    # The held scenario reference pins its id; an identity mismatch means
    # the id was recycled after an eviction, so rebuild.
    if entry is None or entry[0] is not scenario:
        world = World(scenario.world_factory(seed))
        world.run(warmup_s, dt)
        entry = (scenario, pickle.dumps(world, pickle.HIGHEST_PROTOCOL))
        _WARM_WORLD_MEMO[key] = entry
        while len(_WARM_WORLD_MEMO) > _WARM_WORLD_CAP:
            _WARM_WORLD_MEMO.popitem(last=False)
    else:
        _WARM_WORLD_MEMO.move_to_end(key)
    return pickle.loads(entry[1])


class SharedWorlds:
    """What one sharing scope has simulated: a bounded LRU registry.

    Entries are keyed by their inputs; an entry whose key holds an
    object identity also holds the object (``pin``), so a recycled id
    never matches.
    """

    CAP = 8

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, Tuple[Any, Any]]" = OrderedDict()

    def get(self, key: tuple, pin: Any, build: Callable[[], Any]) -> Any:
        """The entry under ``key``, built by ``build()`` the first time."""
        entry = self._entries.get(key)
        if entry is None or entry[0] is not pin:
            entry = (pin, build())
            self._entries[key] = entry
            while len(self._entries) > self.CAP:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return entry[1]

    def clear(self) -> None:
        self._entries.clear()


_ACTIVE: ContextVar[Optional[SharedWorlds]] = ContextVar(
    "repro_shared_worlds", default=None
)


@contextmanager
def share_worlds(
    worlds: Optional[SharedWorlds] = None,
) -> Iterator[SharedWorlds]:
    """Share simulated worlds between the runs inside this context.

    ``worlds`` is the registry to share through (a fresh one when
    omitted); a caller that keeps one across several scopes keeps what
    they simulated.
    """
    worlds = SharedWorlds() if worlds is None else worlds
    token = _ACTIVE.set(worlds)
    try:
        yield worlds
    finally:
        _ACTIVE.reset(token)


def shared(key: tuple, build: Callable[[], Any]) -> Any:
    """``build()``, once per key inside a sharing scope; outside, every call.

    ``key`` must identify what ``build`` computes by value. A shared
    result is handed to every caller, which must not mutate it.
    """
    worlds = _ACTIVE.get()
    if worlds is None:
        return build()
    return worlds.get(key, None, build)


def world_trajectory(
    scenario: Scenario,
    seed: int,
    warmup_s: float,
    depth: int,
    private: bool = False,
) -> Trajectory:
    """The trajectory a run of ``scenario`` reads its frames from.

    Inside a sharing scope, and unless ``private``, it is the scope's
    recorded trajectory of this (scenario, seed, warm-up, frame
    interval); otherwise a private one keeping ``depth`` frames.
    """
    dt = scenario.frame_interval
    worlds = None if private else _ACTIVE.get()
    if worlds is None:
        return Trajectory(
            _warmed_world(scenario, seed, warmup_s, dt),
            scenario.cameras, dt, depth,
        )
    return worlds.get(
        ("trajectory", id(scenario), seed, warmup_s, dt),
        scenario,
        lambda: Trajectory(
            _warmed_world(scenario, seed, warmup_s, dt), scenario.cameras, dt
        ),
    )
