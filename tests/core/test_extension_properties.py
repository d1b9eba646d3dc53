"""Property-based tests for the extension modules."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.core.balb import balb_central
from repro.core.bandwidth import min_view_cover
from repro.core.energy import assignment_energy_mj, energy_aware_assignment
from repro.core.problem import MVSInstance, SchedObject, is_feasible
from repro.core.quality import quality_aware_central
from repro.core.redundancy import balb_redundant
from repro.devices.profiler import DeviceProfile
from tests.core.reference_redundancy import (
    is_feasible_multi,
    multi_system_latency,
)


@st.composite
def instances(draw, max_cameras=4, max_objects=8):
    n_cams = draw(st.integers(1, max_cameras))
    sizes = (64, 128)
    profiles = {}
    for cam in range(n_cams):
        t64 = draw(st.floats(1.0, 40.0))
        profiles[cam] = DeviceProfile(
            device_name=draw(
                st.sampled_from(
                    ["jetson-nano", "jetson-tx2", "jetson-agx-xavier", "other"]
                )
            ),
            size_set=sizes,
            t_full=draw(st.floats(50.0, 600.0)),
            batch_latency_ms={64: t64, 128: draw(st.floats(t64, 90.0))},
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
                target_sizes={c: draw(st.sampled_from(sizes)) for c in cover},
            )
        )
    return MVSInstance(profiles=profiles, objects=tuple(objects))


class TestRedundancyProperties:
    @settings(max_examples=60, deadline=None)
    @given(instances(), st.integers(1, 3))
    def test_always_feasible(self, inst, k):
        result = balb_redundant(inst, k=k)
        assert is_feasible_multi(inst, result.assignment) or not inst.objects

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.integers(1, 3))
    def test_replicas_bounded_by_coverage(self, inst, k):
        result = balb_redundant(inst, k=k)
        for obj in inst.objects:
            cams = result.assignment[obj.key]
            assert 1 <= len(cams) <= min(k, len(obj.coverage))

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_more_redundancy_never_cheaper(self, inst):
        k1 = balb_redundant(inst, k=1)
        k2 = balb_redundant(inst, k=2)
        lat1 = multi_system_latency(inst, k1.assignment, True)
        lat2 = multi_system_latency(inst, k2.assignment, True)
        assert lat2 >= lat1 - 1e-9


class TestEnergyProperties:
    @settings(max_examples=60, deadline=None)
    @given(instances(), st.floats(10.0, 500.0))
    def test_assignment_feasible(self, inst, deadline):
        if not inst.objects:
            return
        assignment = energy_aware_assignment(inst, deadline)
        assert is_feasible(inst, assignment)

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_loose_deadline_never_uses_more_energy_than_balb(self, inst):
        if not inst.objects:
            return
        balb = balb_central(inst, include_full_frame=False)
        aware = energy_aware_assignment(inst, latency_deadline_ms=1e9)
        assert assignment_energy_mj(inst, aware) <= assignment_energy_mj(
            inst, balb.assignment
        ) + 1e-6


class TestQualityProperties:
    @settings(max_examples=60, deadline=None)
    @given(instances(), st.floats(0.0, 1.0))
    def test_assignment_feasible_for_any_alpha(self, inst, alpha):
        qualities = {
            (o.key, c): 0.5 for o in inst.objects for c in o.coverage
        }
        result = quality_aware_central(inst, qualities, alpha=alpha)
        assert is_feasible(inst, result.assignment) or not inst.objects

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_quality_bounds(self, inst):
        rng = np.random.default_rng(0)
        qualities = {
            (o.key, c): float(rng.uniform(0, 1))
            for o in inst.objects
            for c in o.coverage
        }
        result = quality_aware_central(inst, qualities, alpha=0.5)
        assert 0.0 <= result.min_quality <= result.mean_quality <= 1.0


class TestSetCoverProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            keys=st.integers(0, 20),
            values=st.lists(st.integers(0, 5), max_size=4),
            max_size=15,
        )
    )
    def test_cover_is_valid(self, coverage):
        costs = {cam: 1.0 for cams in coverage.values() for cam in cams}
        plan = min_view_cover(coverage, costs)
        # Every coverable object is covered; uncoverable ones are reported.
        for key, cams in coverage.items():
            if cams:
                assert key in plan.covered_objects
            else:
                assert key in plan.uncovered_objects
        # Selected cameras are distinct and useful.
        assert len(set(plan.cameras)) == len(plan.cameras)
