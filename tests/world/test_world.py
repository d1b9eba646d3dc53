"""Tests for the stepping world simulation."""

import io
import pickle

import pytest

from repro.scenarios.aic21 import get_scenario
from repro.world.entities import WorldObject
from repro.world.motion import Route, TrafficLight
from repro.world.spawn import SpawnSpec
from repro.world.world import World, WorldConfig


def make_world(rate=1.0, light=None, seed=0, length=100.0):
    route = Route(0, ((0.0, 0.0), (length, 0.0)))
    return World(
        WorldConfig(
            routes=[route],
            spawn_specs=[SpawnSpec(route, rate)],
            traffic_light=light,
            seed=seed,
        )
    )


class TestWorldStepping:
    def test_time_advances(self):
        world = make_world()
        world.run(5.0, 0.1)
        assert world.time == pytest.approx(5.0)

    def test_objects_move_forward(self):
        world = make_world(rate=5.0, seed=1)
        world.step(0.5)
        if not world.objects:
            world.run(2.0, 0.1)
        before = {o.object_id: o.route_progress for o in world.objects}
        world.step(0.1)
        for obj in world.objects:
            if obj.object_id in before:
                assert obj.route_progress >= before[obj.object_id]

    def test_objects_despawn_at_route_end(self):
        world = make_world(rate=2.0, seed=2, length=30.0)
        seen = {}
        for _ in range(600):
            world.step(0.1)
            seen.update((obj.object_id, obj) for obj in world.objects)
        live = {obj.object_id for obj in world.objects}
        departed = [obj for oid, obj in seen.items() if oid not in live]
        assert departed  # plenty should have crossed 30 m
        for obj in departed:
            assert not obj.alive

    def test_pickle_holds_only_live_objects(self):
        """Checkpoints pickle the world: departed objects must not ride along."""
        world, _ = get_scenario("S1", seed=0).build()
        world.run(300.0, 0.1)
        live = {id(obj) for obj in world.objects}
        pickled = []

        class Recorder(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, WorldObject):
                    pickled.append(obj)
                return None

        Recorder(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(world)
        assert pickled
        assert all(id(obj) in live for obj in pickled)

    def test_deterministic_given_seed(self):
        w1 = make_world(rate=1.0, seed=42)
        w2 = make_world(rate=1.0, seed=42)
        w1.run(20.0, 0.1)
        w2.run(20.0, 0.1)
        s1 = [(o.object_id, o.x, o.speed) for o in w1.objects]
        s2 = [(o.object_id, o.x, o.speed) for o in w2.objects]
        assert s1 == s2

    def test_different_seeds_differ(self):
        w1 = make_world(rate=1.0, seed=1)
        w2 = make_world(rate=1.0, seed=2)
        w1.run(20.0, 0.1)
        w2.run(20.0, 0.1)
        s1 = [(o.object_id, round(o.x, 3)) for o in w1.objects]
        s2 = [(o.object_id, round(o.x, 3)) for o in w2.objects]
        assert s1 != s2

    def test_invalid_dt_raises(self):
        with pytest.raises(ValueError):
            make_world().step(0.0)

    def test_empty_routes_raise(self):
        with pytest.raises(ValueError):
            World(WorldConfig(routes=[], spawn_specs=[]))

    def test_duplicate_route_ids_raise(self):
        r1 = Route(0, ((0, 0), (10, 0)))
        r2 = Route(0, ((0, 5), (10, 5)))
        with pytest.raises(ValueError):
            World(WorldConfig(routes=[r1, r2], spawn_specs=[]))

    def test_objects_ordered_by_id(self):
        world = make_world(rate=5.0, seed=3)
        world.run(10.0, 0.1)
        ids = [o.object_id for o in world.objects]
        assert ids == sorted(ids)


class TestCarFollowing:
    def test_no_collisions_on_congested_road(self):
        world = make_world(rate=5.0, seed=4)
        for _ in range(300):
            world.step(0.1)
            objs = sorted(world.objects, key=lambda o: o.route_progress)
            for follower, leader in zip(objs, objs[1:]):
                front = follower.route_progress + follower.length / 2
                rear = leader.route_progress - leader.length / 2
                assert front <= rear + 0.5, "vehicles overlapped"

    def test_queue_forms_at_red_light(self):
        light = TrafficLight(
            stop_positions={0: 50.0},
            green_routes=[frozenset(), frozenset({0})],
            phase_duration=1000.0,  # stays red for the whole test
        )
        world = make_world(rate=2.0, light=light, seed=5)
        world.run(40.0, 0.1)
        # Nobody (spawned while red) passes the stop line.
        for obj in world.objects:
            assert obj.route_progress <= 50.5
        # And a queue of nearly stopped vehicles exists near the line.
        stopped = [o for o in world.objects if o.speed < 0.5]
        assert len(stopped) >= 2

    def test_green_light_releases_queue(self):
        light = TrafficLight(
            stop_positions={0: 50.0},
            green_routes=[frozenset(), frozenset({0})],
            phase_duration=30.0,
        )
        world = make_world(rate=2.0, light=light, seed=6)
        world.run(29.0, 0.1)  # red phase: queue forms
        queued = [o.object_id for o in world.objects if o.speed < 0.5]
        world.run(15.0, 0.1)  # green phase releases
        still_stopped = [
            o.object_id for o in world.objects if o.speed < 0.5
        ]
        assert len(still_stopped) < max(1, len(queued))
