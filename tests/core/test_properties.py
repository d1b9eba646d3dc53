"""Property-based tests for the scheduling core."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balb import balb_central
from repro.core.optimal import optimal_assignment
from repro.core.problem import (
    MVSInstance,
    SchedObject,
    camera_latency,
    is_feasible,
    system_latency,
)
from repro.devices.profiler import DeviceProfile


@st.composite
def instances(draw, max_cameras=4, max_objects=10):
    n_cams = draw(st.integers(1, max_cameras))
    sizes = (64, 128)
    profiles = {}
    for cam in range(n_cams):
        t64 = draw(st.floats(1.0, 50.0))
        t128 = draw(st.floats(t64, 100.0))
        profiles[cam] = DeviceProfile(
            device_name=f"cam{cam}",
            size_set=sizes,
            t_full=draw(st.floats(50.0, 600.0)),
            batch_latency_ms={64: t64, 128: t128},
            batch_limits={
                64: draw(st.integers(1, 8)),
                128: draw(st.integers(1, 4)),
            },
        )
    n_objs = draw(st.integers(0, max_objects))
    objects = []
    for j in range(n_objs):
        cover = draw(
            st.sets(st.integers(0, n_cams - 1), min_size=1, max_size=n_cams)
        )
        objects.append(
            SchedObject(
                key=j,
                target_sizes={
                    cam: draw(st.sampled_from(sizes)) for cam in cover
                },
            )
        )
    return MVSInstance(profiles=profiles, objects=tuple(objects))


class TestBALBProperties:
    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_assignment_feasible(self, inst):
        result = balb_central(inst)
        assert is_feasible(inst, result.assignment)

    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_internal_latency_bookkeeping_consistent(self, inst):
        result = balb_central(inst)
        for cam, lat in result.camera_latencies.items():
            recomputed = camera_latency(inst, result.assignment, cam, True)
            assert abs(lat - recomputed) < 1e-6

    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_priority_order_sorted_by_latency(self, inst):
        result = balb_central(inst)
        lats = [result.camera_latencies[cam] for cam in result.priority_order]
        assert lats == sorted(lats)

    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_ablated_variants_feasible(self, inst):
        for kwargs in (
            {"batch_aware": False},
            {"coverage_ordered": False},
            {"include_full_frame": False},
        ):
            result = balb_central(inst, **kwargs)
            assert is_feasible(inst, result.assignment)

    @settings(max_examples=40, deadline=None)
    @given(instances(max_cameras=3, max_objects=7))
    def test_never_beats_optimal(self, inst):
        result = balb_central(inst)
        balb_lat = system_latency(inst, result.assignment, True)
        _, opt_lat = optimal_assignment(inst)
        assert balb_lat >= opt_lat - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(instances(max_cameras=3, max_objects=7))
    def test_optimal_is_feasible_and_tight(self, inst):
        assignment, latency = optimal_assignment(inst)
        assert is_feasible(inst, assignment) or not inst.objects
        assert abs(system_latency(inst, assignment, True) - latency) < 1e-6
