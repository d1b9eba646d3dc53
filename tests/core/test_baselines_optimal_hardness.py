"""Tests for scheduling baselines, the exact solver and the NP-hardness
reduction."""

import numpy as np
import pytest

from repro.core.balb import balb_central
from repro.core.baselines import independent_latencies
from repro.core.hardness import bins_fit, mvs_from_bin_packing
from repro.core.optimal import optimal_assignment
from repro.core.problem import (
    MVSInstance,
    SchedObject,
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


def shared_instance(n=6):
    profiles = {0: profile("a"), 1: profile("b", t64=15.0, t128=30.0)}
    objects = tuple(
        SchedObject(key=j, target_sizes={0: 64, 1: 64}) for j in range(n)
    )
    return MVSInstance(profiles=profiles, objects=objects)


class TestBaselines:
    def test_independent_latencies_count_redundant_work(self):
        inst = shared_instance(n=4)
        ind = independent_latencies(inst)
        # Every camera tracks all 4 shared objects: one batch each.
        assert ind[0] == pytest.approx(5.0)
        assert ind[1] == pytest.approx(15.0)

    def test_independent_with_full_frame(self):
        inst = shared_instance(n=4)
        ind = independent_latencies(inst, include_full_frame=True)
        assert ind[0] == pytest.approx(105.0)

    def test_independent_at_least_balb(self):
        """Redundant tracking can never beat deduplicated tracking."""
        inst = shared_instance(n=10)
        ind_max = max(independent_latencies(inst).values())
        res = balb_central(inst, include_full_frame=False)
        balb_max = system_latency(inst, res.assignment)
        assert balb_max <= ind_max + 1e-9

    def test_ablation_assignments_feasible(self):
        inst = shared_instance(n=7)
        for ablation in ({"batch_aware": False}, {"coverage_ordered": False}):
            assert is_feasible(inst, balb_central(inst, **ablation).assignment)


class TestOptimal:
    def test_optimal_no_worse_than_balb(self):
        rng = np.random.default_rng(0)
        profiles = {0: profile("a"), 1: profile("b", t64=9.0, t128=17.0)}
        for trial in range(10):
            objects = []
            for j in range(7):
                cov = {0: 64} if rng.random() < 0.4 else {0: 64, 1: 128}
                objects.append(SchedObject(key=j, target_sizes=cov))
            inst = MVSInstance(profiles=profiles, objects=tuple(objects))
            res = balb_central(inst)
            balb_lat = system_latency(inst, res.assignment, True)
            opt_assign, opt_lat = optimal_assignment(inst)
            assert is_feasible(inst, opt_assign)
            assert opt_lat <= balb_lat + 1e-9
            assert system_latency(inst, opt_assign, True) == pytest.approx(opt_lat)

    def test_approximation_ratio_at_least_one(self):
        inst = shared_instance(n=6)
        balb_lat = system_latency(inst, balb_central(inst).assignment, True)
        _, opt_lat = optimal_assignment(inst)
        assert balb_lat / opt_lat >= 1.0 - 1e-9

    def test_empty_instance(self):
        inst = MVSInstance(profiles={0: profile()}, objects=())
        assignment, latency = optimal_assignment(inst)
        assert assignment == {}
        assert latency == pytest.approx(100.0)

    def test_size_cap_enforced(self):
        objects = tuple(
            SchedObject(key=j, target_sizes={0: 64}) for j in range(20)
        )
        inst = MVSInstance(profiles={0: profile()}, objects=objects)
        with pytest.raises(ValueError):
            optimal_assignment(inst, max_objects=10)


class TestHardnessReduction:
    def test_reduction_matches_bin_packing_feasibility(self):
        items = [3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 1.0]
        inst = mvs_from_bin_packing(items, n_bins=3)
        _, makespan = optimal_assignment(inst, include_full_frame=False)
        # Items fit into 3 bins of capacity C iff optimal makespan <= C.
        assert bins_fit(items, 3, makespan)
        assert not bins_fit(items, 3, makespan - 0.5)

    def test_reduction_structure(self):
        inst = mvs_from_bin_packing([1.0, 2.0], n_bins=2)
        assert len(inst.objects) == 2
        assert len(inst.profiles) == 2
        for obj in inst.objects:
            assert obj.coverage == frozenset({0, 1})
        for prof in inst.profiles.values():
            for size in prof.size_set:
                assert prof.batch_limit(size) == 1

    def test_identical_machines(self):
        inst = mvs_from_bin_packing([1.5, 2.5, 1.5], n_bins=2)
        profs = list(inst.profiles.values())
        assert all(
            p.batch_latency_ms == profs[0].batch_latency_ms for p in profs
        )

    def test_perfect_packing_instance(self):
        # 2 bins, items {2, 2, 2, 2}: makespan exactly 4.
        inst = mvs_from_bin_packing([2.0] * 4, n_bins=2)
        _, makespan = optimal_assignment(inst, include_full_frame=False)
        assert makespan == pytest.approx(4.0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            mvs_from_bin_packing([], 2)
        with pytest.raises(ValueError):
            mvs_from_bin_packing([1.0], 0)
        with pytest.raises(ValueError):
            mvs_from_bin_packing([0.0], 2)

    def test_bins_fit_reference(self):
        assert bins_fit([5, 5, 5], 3, 5)
        assert not bins_fit([5, 5, 5], 2, 5)
        assert bins_fit([3, 3, 2, 2], 2, 5)
        assert not bins_fit([6], 1, 5)
