"""Tests for the MVS problem formulation."""


import pytest

from repro.core.problem import (
    MVSInstance,
    SchedObject,
    camera_latency,
    camera_size_counts,
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


def two_camera_instance():
    profiles = {0: profile("fast"), 1: profile("slow", t64=20.0, t128=40.0)}
    objects = (
        SchedObject(key=0, target_sizes={0: 64}),
        SchedObject(key=1, target_sizes={0: 64, 1: 64}),
        SchedObject(key=2, target_sizes={1: 128}),
    )
    return MVSInstance(profiles=profiles, objects=objects)


class TestSchedObject:
    def test_coverage_from_sizes(self):
        obj = SchedObject(key=0, target_sizes={2: 64, 5: 128})
        assert obj.coverage == frozenset({2, 5})
        assert obj.size_on(2) == 64

    def test_empty_coverage_raises(self):
        with pytest.raises(ValueError):
            SchedObject(key=0, target_sizes={})

    def test_unknown_camera_raises(self):
        obj = SchedObject(key=0, target_sizes={1: 64})
        with pytest.raises(KeyError):
            obj.size_on(9)


class TestMVSInstance:
    def test_camera_ids_sorted(self):
        assert two_camera_instance().camera_ids == [0, 1]

    def test_unknown_coverage_camera_rejected(self):
        with pytest.raises(ValueError):
            MVSInstance(
                profiles={0: profile()},
                objects=(SchedObject(key=0, target_sizes={7: 64}),),
            )

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            MVSInstance(profiles={}, objects=())


class TestFeasibility:
    def test_valid_assignment(self):
        inst = two_camera_instance()
        assert is_feasible(inst, {0: 0, 1: 0, 2: 1})
        assert is_feasible(inst, {0: 0, 1: 1, 2: 1})

    def test_missing_object_infeasible(self):
        inst = two_camera_instance()
        assert not is_feasible(inst, {0: 0, 1: 0})

    def test_wrong_camera_infeasible(self):
        inst = two_camera_instance()
        assert not is_feasible(inst, {0: 1, 1: 0, 2: 1})

    def test_extra_object_infeasible(self):
        inst = two_camera_instance()
        assert not is_feasible(inst, {0: 0, 1: 0, 2: 1, 3: 0})


class TestLatency:
    def test_size_counts(self):
        inst = two_camera_instance()
        assignment = {0: 0, 1: 0, 2: 1}
        assert camera_size_counts(inst, assignment, 0) == {64: 2}
        assert camera_size_counts(inst, assignment, 1) == {128: 1}

    def test_batched_latency(self):
        inst = two_camera_instance()
        # Camera 0: 2 objects at size 64, batch limit 4 -> one batch of t=5.
        assert camera_latency(inst, {0: 0, 1: 0, 2: 1}, 0) == pytest.approx(5.0)

    def test_latency_ceil_batches(self):
        profiles = {0: profile(b64=2)}
        objects = tuple(
            SchedObject(key=j, target_sizes={0: 64}) for j in range(5)
        )
        inst = MVSInstance(profiles=profiles, objects=objects)
        # 5 objects, limit 2 -> ceil(5/2) = 3 batches.
        assert camera_latency(inst, {j: 0 for j in range(5)}, 0) == pytest.approx(
            15.0
        )

    def test_full_frame_term(self):
        inst = two_camera_instance()
        base = camera_latency(inst, {0: 0, 1: 0, 2: 1}, 0)
        with_full = camera_latency(
            inst, {0: 0, 1: 0, 2: 1}, 0, include_full_frame=True
        )
        assert with_full == pytest.approx(base + 100.0)

    def test_system_latency_is_max(self):
        inst = two_camera_instance()
        assignment = {0: 0, 1: 0, 2: 1}
        per_camera = [
            camera_latency(inst, assignment, cam) for cam in inst.camera_ids
        ]
        assert system_latency(inst, assignment) == max(per_camera)

    def test_mixed_sizes_summed(self):
        profiles = {0: profile()}
        objects = (
            SchedObject(key=0, target_sizes={0: 64}),
            SchedObject(key=1, target_sizes={0: 128}),
        )
        inst = MVSInstance(profiles=profiles, objects=objects)
        assert camera_latency(inst, {0: 0, 1: 0}, 0) == pytest.approx(15.0)
