"""The ground-truth world: routes, lights, spawner and moving objects.

:class:`World` is the discrete-time physics substrate for the whole
reproduction. Everything downstream — camera projection, the simulated
detector, the association supervisor, the recall accounting — reads object
ground truth from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.world.entities import WorldObject
from repro.world.motion import (
    MotionParams,
    Route,
    TrafficLight,
    advance_speed,
    gap_limited_speed,
    light_limited_speed,
)
from repro.world.spawn import Spawner, SpawnSpec


@dataclass
class WorldConfig:
    """Static configuration of a world instance."""

    routes: List[Route]
    spawn_specs: List[SpawnSpec]
    traffic_light: Optional[TrafficLight] = None
    motion: MotionParams = field(default_factory=MotionParams)
    seed: int = 0


class World:
    """Discrete-time ground-plane simulation.

    Objects are spawned on routes, follow them under car-following and
    traffic-light rules, and despawn at the route end. ``step(dt)``
    advances physics; ``objects`` exposes the live set.
    """

    def __init__(self, config: WorldConfig) -> None:
        if not config.routes:
            raise ValueError("world needs at least one route")
        self.config = config
        self.time = 0.0
        self._rng = np.random.default_rng(config.seed)
        self._spawner = Spawner(config.spawn_specs, self._rng)
        self._objects: Dict[int, WorldObject] = {}
        self._routes_by_id = {r.route_id: r for r in config.routes}
        if len(self._routes_by_id) != len(config.routes):
            raise ValueError("duplicate route ids")
        # Despawn threshold per route, hoisted out of the per-step scan.
        self._route_end = {
            rid: r.length - 1e-6 for rid, r in self._routes_by_id.items()
        }

    # ------------------------------------------------------------------
    @property
    def objects(self) -> List[WorldObject]:
        """Live objects, ordered by id for determinism."""
        return [self._objects[k] for k in sorted(self._objects)]

    # ------------------------------------------------------------------
    def step(self, dt: float) -> None:
        """Advance the world by ``dt`` seconds."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._move_objects(dt)
        self._despawn_finished()
        born = self._spawner.spawn_step(self.time, dt, self._entrance_blocked)
        for obj in born:
            self._objects[obj.object_id] = obj
        self.time += dt

    def run(self, duration: float, dt: float) -> None:
        """Advance repeatedly until ``duration`` seconds have elapsed."""
        steps = int(round(duration / dt))
        for _ in range(steps):
            self.step(dt)

    # ------------------------------------------------------------------
    def _move_objects(self, dt: float) -> None:
        params = self.config.motion
        light = self.config.traffic_light
        now = self.time
        by_route: Dict[int, List[WorldObject]] = {}
        for obj in self._objects.values():
            by_route.setdefault(obj.route_id, []).append(obj)

        for route_id, members in by_route.items():
            route = self._routes_by_id.get(route_id)
            if route is None:
                continue
            # Process front-to-back so each follower sees its leader's
            # *previous* position — a stable explicit update.
            members.sort(key=lambda o: -o.route_progress)
            # Both limit rules return ``cruise`` when inactive (no leader
            # / green light), and min(target, cruise) with target already
            # at cruise is the identity — so the calls are skipped
            # outright in those cases. The light phase depends only on
            # (route, time), so it is decided once per route per step.
            red = light is not None and not light.is_green(route_id, now)
            leader: Optional[WorldObject] = None
            for obj in members:
                cruise = float(obj.attributes.get("cruise_speed", obj.speed))
                target = cruise
                if leader is not None:
                    target = min(
                        target,
                        gap_limited_speed(
                            obj.route_progress,
                            obj.length / 2.0,
                            leader.route_progress,
                            leader.length / 2.0,
                            cruise,
                            dt,
                            params,
                        ),
                    )
                if red:
                    target = min(
                        target,
                        light_limited_speed(
                            obj.route_progress,
                            cruise,
                            light,
                            route_id,
                            now,
                            dt,
                            params,
                        ),
                    )
                obj.speed = advance_speed(obj.speed, target, dt, params)
                obj.route_progress += obj.speed * dt
                x, y, heading = route.pose_at(obj.route_progress)
                obj.x, obj.y, obj.heading = x, y, heading
                leader = obj

    def _despawn_finished(self) -> None:
        route_end = self._route_end
        finished = [
            oid
            for oid, obj in self._objects.items()
            if obj.route_progress >= route_end[obj.route_id]
        ]
        for oid in finished:
            self._objects.pop(oid).alive = False

    def _entrance_blocked(self, route: Route, clearance: float) -> bool:
        for obj in self._objects.values():
            if obj.route_id == route.route_id and obj.route_progress < clearance:
                return True
        return False
