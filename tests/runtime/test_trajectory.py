"""World trajectories: lagged views, read-only shared frames, pickling."""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.cameras.projection import FrameProjectionCache
from repro.runtime.pipeline import (
    POLICIES,
    PipelineConfig,
    run_policy,
    train_models,
)
from repro.runtime.synchronization import drifted_lag
from repro.runtime.trajectory import (
    Trajectory,
    share_worlds,
    world_trajectory,
)
from repro.scenarios.aic21 import scenario_s1, scenario_s2
from repro.world.entities import ObjectClass, WorldObject
from tests.runtime.reference_history import WorldHistory


class LineWorld:
    """A world stand-in that mutates its objects in place, as World does.

    Every step moves each object one metre, admits one object and retires
    the objects that reached x = 3, so consecutive frames differ in both
    positions and membership.
    """

    def __init__(self) -> None:
        self._objects = {}
        self._next_id = 0

    def step(self, dt: float) -> None:
        for obj in self._objects.values():
            obj.x += 1.0
            obj.speed += 0.5
        self._objects[self._next_id] = WorldObject.of_class(
            self._next_id, ObjectClass.CAR, 0.0, float(self._next_id),
            0.0, 10.0,
        )
        self._next_id += 1
        for oid in [k for k, o in self._objects.items() if o.x >= 3.0]:
            del self._objects[oid]

    @property
    def objects(self):
        return [self._objects[k] for k in sorted(self._objects)]


CAMERAS = tuple(scenario_s2().cameras)


@settings(max_examples=60, deadline=None)
@given(
    max_lag=st.integers(0, 3),
    static_lags=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    drift=st.lists(
        st.lists(st.integers(0, 6), min_size=3, max_size=3),
        min_size=1, max_size=14,
    ),
)
def test_lagged_views_match_the_history_oracle(max_lag, static_lags, drift):
    """Every camera's view equals the snapshot buffer's, frame by frame,
    including the frames before the buffer fills and under drift."""
    lags = [min(lag, max_lag) for lag in static_lags]
    depth = max_lag + max(max(row) for row in drift) + 1
    oracle_world = LineWorld()
    oracle = WorldHistory(depth)
    private = Trajectory(LineWorld(), CAMERAS, 0.1, depth)
    recorded = Trajectory(LineWorld(), CAMERAS, 0.1)
    snapshots = []
    for k, row in enumerate(drift):
        oracle_world.step(0.1)
        oracle.push(oracle_world.objects)
        snapshots.append(copy.deepcopy(oracle_world.objects))
        for cam, lag in enumerate(lags):
            effective = drifted_lag(lag, row[cam], depth)
            expected = oracle.view(effective)
            assert private.view(k, effective)[0] == expected
            assert recorded.view(k, effective)[0] == expected
    # A recorded frame never changes after the world moves on.
    for k, snapshot in enumerate(snapshots):
        assert recorded.frame(k)[0] == snapshot


class TestTrajectory:
    def test_private_without_lag_hands_out_the_live_list(self):
        world = LineWorld()
        trajectory = Trajectory(world, CAMERAS, 0.1, depth=1)
        objects, _ = trajectory.frame(0)
        live = world.objects
        assert all(a is b for a, b in zip(objects, live))
        assert len(objects) == len(live)

    def test_recorded_frames_are_copies(self):
        world = LineWorld()
        objects, _ = Trajectory(world, CAMERAS, 0.1).frame(0)
        assert objects == world.objects
        assert all(a is not b for a, b in zip(objects, world.objects))

    def test_a_frame_is_stepped_once_and_shared(self):
        trajectory = Trajectory(LineWorld(), CAMERAS, 0.1)
        third = trajectory.frame(2)
        assert trajectory.frame(0) is not third
        assert trajectory.frame(2) is third
        assert trajectory.view(2, 5) is trajectory.frame(0)

    def test_frames_behind_the_kept_window_are_refused(self):
        trajectory = Trajectory(LineWorld(), CAMERAS, 0.1, depth=2)
        trajectory.frame(4)
        trajectory.frame(3)
        with pytest.raises(IndexError, match="frame 2"):
            trajectory.frame(2)

    def test_invalid_depth_raises(self):
        with pytest.raises(ValueError):
            Trajectory(LineWorld(), CAMERAS, 0.1, depth=0)

    def test_scope_shares_one_trajectory_per_world(self):
        scenario = scenario_s2()
        with share_worlds():
            a = world_trajectory(scenario, 3, 1.0, depth=1)
            b = world_trajectory(scenario, 3, 1.0, depth=4)
            other_seed = world_trajectory(scenario, 4, 1.0, depth=1)
            private = world_trajectory(scenario, 3, 1.0, 1, private=True)
        outside = world_trajectory(scenario, 3, 1.0, depth=1)
        assert a is b
        assert other_seed is not a
        assert private is not a and outside is not a
        assert outside.frame(0)[0] == a.frame(0)[0]

    def test_scope_registry_is_bounded(self):
        scenario = scenario_s2()
        with share_worlds() as worlds:
            first = world_trajectory(scenario, 0, 1.0, depth=1)
            for seed in range(1, worlds.CAP + 1):
                world_trajectory(scenario, seed, 1.0, depth=1)
            assert world_trajectory(scenario, 0, 1.0, depth=1) is not first


class TestProjectionCachePickle:
    def test_a_pickled_cache_carries_its_cameras_and_reprojects(self):
        objects = world_trajectory(scenario_s2(), 0, 20.0, 1).frame(0)[0]
        cache = FrameProjectionCache(CAMERAS)
        tables = [cache.boxes(cam, objects) for cam in CAMERAS]
        restored = pickle.loads(pickle.dumps(cache))
        empty = FrameProjectionCache(CAMERAS)
        assert pickle.dumps(cache) == pickle.dumps(empty)
        assert [restored.boxes(cam, objects) for cam in CAMERAS] == tables


def test_shared_frames_are_never_mutated(monkeypatch):
    """All five policies on one shared S1 trajectory, with occlusion, a
    sensor freeze, static skew and a drifting clock: afterwards every
    recorded frame's objects equal a deep copy taken when it was
    recorded, its tables equal a fresh projection of that copy, and each
    run equals the same run on its own world."""
    scenario = scenario_s1()
    config = PipelineConfig(
        horizon=5, n_horizons=4, warmup_s=6.0, train_duration_s=20.0,
        occlusion=True, max_camera_lag_frames=2,
        faults="freeze:cam=1,at=3,for=6;drift:cam=2,rate=0.5,at=2,for=12",
    )
    trained = train_models(scenario, config)
    alone = {
        policy: run_policy(scenario, policy, config, trained)
        for policy in POLICIES
    }

    recorded = []
    record = Trajectory._record

    def recording(self):
        record(self)
        objects, cache = self._frames[-1]
        recorded.append((objects, cache, copy.deepcopy(objects)))

    monkeypatch.setattr(Trajectory, "_record", recording)
    with share_worlds():
        together = {
            policy: run_policy(scenario, policy, config, trained)
            for policy in POLICIES
        }
    assert len(recorded) == 20  # one recording served five runs
    for objects, cache, at_record in recorded:
        assert objects == at_record
        fresh = FrameProjectionCache(scenario.cameras)
        for cam in scenario.cameras:
            assert cache.boxes(cam, objects) == fresh.boxes(cam, at_record)
        assert cache.coverage_table(objects) == fresh.coverage_table(at_record)
    for policy in POLICIES:
        assert [f.__dict__ for f in together[policy].frames] == [
            f.__dict__ for f in alone[policy].frames
        ]
