"""Tests for the central-stage BALB algorithm (Algorithm 1)."""

import pytest

from repro.core.balb import balb_central, order_objects
from repro.core.problem import (
    MVSInstance,
    SchedObject,
    camera_latency,
    is_feasible,
    system_latency,
)
from repro.devices.profiler import DeviceProfile


def profile(name="dev", t_full=100.0, t64=5.0, t128=10.0, b64=4, b128=2):
    return DeviceProfile(
        device_name=name,
        size_set=(64, 128),
        t_full=t_full,
        batch_latency_ms={64: t64, 128: t128},
        batch_limits={64: b64, 128: b128},
    )


class TestOrdering:
    def test_orders_by_coverage_size(self):
        objs = [
            SchedObject(key=0, target_sizes={0: 64, 1: 64}),
            SchedObject(key=1, target_sizes={0: 64}),
        ]
        ordered = order_objects(objs)
        assert [o.key for o in ordered] == [1, 0]

    def test_ties_broken_by_larger_size(self):
        objs = [
            SchedObject(key=0, target_sizes={0: 64}),
            SchedObject(key=1, target_sizes={0: 128}),
        ]
        ordered = order_objects(objs)
        assert [o.key for o in ordered] == [1, 0]

    def test_stable_by_key_last(self):
        objs = [
            SchedObject(key=1, target_sizes={0: 64}),
            SchedObject(key=0, target_sizes={0: 64}),
        ]
        assert [o.key for o in order_objects(objs)] == [0, 1]


class TestBALBCentral:
    def test_assignment_always_feasible(self):
        profiles = {0: profile("a"), 1: profile("b", t64=20.0)}
        objects = tuple(
            SchedObject(key=j, target_sizes={0: 64, 1: 64} if j % 2 else {0: 64})
            for j in range(9)
        )
        inst = MVSInstance(profiles=profiles, objects=objects)
        result = balb_central(inst)
        assert is_feasible(inst, result.assignment)

    def test_single_view_objects_forced(self):
        profiles = {0: profile("a"), 1: profile("b")}
        objects = (SchedObject(key=0, target_sizes={1: 64}),)
        inst = MVSInstance(profiles=profiles, objects=objects)
        result = balb_central(inst)
        assert result.assignment[0] == 1

    def test_internal_latencies_match_recomputation(self):
        profiles = {
            0: profile("a"),
            1: profile("b", t64=7.0, t128=13.0, b64=3, b128=1),
        }
        objects = tuple(
            SchedObject(
                key=j,
                target_sizes={0: 64 if j % 2 else 128, 1: 128 if j % 3 else 64},
            )
            for j in range(12)
        )
        inst = MVSInstance(profiles=profiles, objects=objects)
        result = balb_central(inst)
        for cam, lat in result.camera_latencies.items():
            assert lat == pytest.approx(
                camera_latency(inst, result.assignment, cam, True)
            )

    def test_load_balances_across_identical_cameras(self):
        profiles = {0: profile("a", b64=1), 1: profile("b", b64=1)}
        objects = tuple(
            SchedObject(key=j, target_sizes={0: 64, 1: 64}) for j in range(6)
        )
        inst = MVSInstance(profiles=profiles, objects=objects)
        result = balb_central(inst, include_full_frame=False)
        counts = {0: 0, 1: 0}
        for cam in result.assignment.values():
            counts[cam] += 1
        assert counts == {0: 3, 1: 3}

    def test_prefers_filling_incomplete_batches(self):
        # Camera 0 gets the first object (new batch, limit 4). The three
        # following objects should ride in that same batch for free, even
        # though camera 1 is idle.
        profiles = {0: profile("a", t_full=10.0), 1: profile("b", t_full=10.0)}
        objects = (
            SchedObject(key=0, target_sizes={0: 64}),  # forced to cam 0
            SchedObject(key=1, target_sizes={0: 64, 1: 64}),
            SchedObject(key=2, target_sizes={0: 64, 1: 64}),
            SchedObject(key=3, target_sizes={0: 64, 1: 64}),
        )
        inst = MVSInstance(profiles=profiles, objects=objects)
        result = balb_central(inst)
        assert all(cam == 0 for cam in result.assignment.values())
        # Batch-awareness disabled: shared objects spill to the idle camera.
        naive = balb_central(inst, batch_aware=False)
        assert any(cam == 1 for cam in naive.assignment.values())

    def test_full_frame_init_biases_away_from_slow_camera(self):
        profiles = {
            0: profile("fast", t_full=50.0),
            1: profile("slow", t_full=500.0),
        }
        objects = tuple(
            SchedObject(key=j, target_sizes={0: 128, 1: 128}) for j in range(4)
        )
        inst = MVSInstance(profiles=profiles, objects=objects)
        result = balb_central(inst, include_full_frame=True)
        assert all(cam == 0 for cam in result.assignment.values())

    def test_heterogeneous_speed_considered(self):
        # Same current latency, but the object is much cheaper on camera 0.
        profiles = {
            0: profile("fast", t128=10.0),
            1: profile("slow", t128=100.0),
        }
        objects = (SchedObject(key=0, target_sizes={0: 128, 1: 128}),)
        inst = MVSInstance(profiles=profiles, objects=objects)
        result = balb_central(inst, include_full_frame=False)
        assert result.assignment[0] == 0

    def test_priority_order_increasing_latency(self):
        profiles = {
            0: profile("fast", t_full=50.0),
            1: profile("slow", t_full=500.0),
            2: profile("mid", t_full=200.0),
        }
        inst = MVSInstance(profiles=profiles, objects=())
        result = balb_central(inst)
        assert result.priority_order == (0, 2, 1)

    def test_empty_object_set(self):
        inst = MVSInstance(profiles={0: profile()}, objects=())
        result = balb_central(inst)
        assert result.assignment == {}
        assert result.camera_latencies[0] == pytest.approx(100.0)

    def test_system_latency_no_worse_than_single_camera_dump(self):
        """BALB should never be worse than assigning everything to one
        camera that sees everything."""
        profiles = {0: profile("a"), 1: profile("b", t64=8.0)}
        objects = tuple(
            SchedObject(key=j, target_sizes={0: 64, 1: 64}) for j in range(10)
        )
        inst = MVSInstance(profiles=profiles, objects=objects)
        result = balb_central(inst, include_full_frame=False)
        balb_lat = system_latency(inst, result.assignment)
        dump_lat = system_latency(inst, {j: 0 for j in range(10)})
        assert balb_lat <= dump_lat + 1e-9
