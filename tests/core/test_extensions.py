"""Tests for the Section V extension modules: redundancy, bandwidth,
energy and quality-aware scheduling."""

import pytest

from repro.core.balb import balb_central
from repro.core.bandwidth import (
    all_cameras_upload_mbps,
    frame_upload_mbps,
    min_view_cover,
    upload_plan_for_instance,
)
from repro.core.energy import (
    DEFAULT_ENERGY_MODELS,
    EnergyModel,
    assignment_energy_mj,
    energy_aware_assignment,
    energy_models_for,
)
from repro.core.problem import MVSInstance, SchedObject, camera_latency
from repro.core.quality import quality_aware_central
from repro.core.redundancy import balb_redundant
from repro.devices.profiler import DeviceProfile
from tests.core.reference_redundancy import (
    is_feasible_multi,
    multi_camera_latency,
    multi_system_latency,
)


def profile(name="dev", t_full=100.0, t64=5.0, t128=10.0, b64=4, b128=2):
    return DeviceProfile(
        device_name=name,
        size_set=(64, 128),
        t_full=t_full,
        batch_latency_ms={64: t64, 128: t128},
        batch_limits={64: b64, 128: b128},
    )


def three_camera_instance(n_shared=6, n_exclusive=2):
    profiles = {
        0: profile("jetson-agx-xavier", 70.0, t64=2.0, t128=4.0),
        1: profile("jetson-tx2", 230.0, t64=8.0, t128=16.0),
        2: profile("jetson-nano", 510.0, t64=15.0, t128=30.0),
    }
    objects = []
    key = 0
    for _ in range(n_shared):
        objects.append(SchedObject(key=key, target_sizes={0: 64, 1: 64, 2: 64}))
        key += 1
    for _ in range(n_exclusive):
        objects.append(SchedObject(key=key, target_sizes={2: 128}))
        key += 1
    return MVSInstance(profiles=profiles, objects=tuple(objects))


class TestRedundancy:
    def test_k1_matches_plain_balb(self):
        inst = three_camera_instance()
        plain = balb_central(inst)
        redundant = balb_redundant(inst, k=1)
        assert {k: (v,) for k, v in plain.assignment.items()} == (
            redundant.assignment
        )

    def test_k2_adds_replicas_where_possible(self):
        inst = three_camera_instance()
        result = balb_redundant(inst, k=2)
        assert is_feasible_multi(inst, result.assignment)
        shared_keys = [o.key for o in inst.objects if len(o.coverage) > 1]
        for key in shared_keys:
            assert len(result.assignment[key]) == 2
        # Exclusive objects cannot be replicated.
        exclusive = [o.key for o in inst.objects if len(o.coverage) == 1]
        for key in exclusive:
            assert len(result.assignment[key]) == 1

    def test_replica_count(self):
        inst = three_camera_instance(n_shared=4, n_exclusive=3)
        result = balb_redundant(inst, k=2)
        assert sum(len(cams) - 1 for cams in result.assignment.values()) == 4

    def test_redundancy_costs_latency(self):
        inst = three_camera_instance()
        single = balb_redundant(inst, k=1)
        double = balb_redundant(inst, k=2)
        assert multi_system_latency(
            inst, double.assignment, True
        ) >= multi_system_latency(inst, single.assignment, True)

    def test_vantage_diversity_prefers_far_camera(self):
        profiles = {
            0: profile("a", 100.0),
            1: profile("b", 100.0),
            2: profile("c", 100.0),
        }
        objects = (SchedObject(key=0, target_sizes={0: 64, 1: 64, 2: 64}),)
        inst = MVSInstance(profiles=profiles, objects=objects)
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (100.0, 0.0)}
        result = balb_redundant(inst, k=2, vantage_positions=positions)
        cams = result.assignment[0]
        # With identical load, the replica should pick the far vantage.
        assert 2 in cams

    def test_k_zero_raises(self):
        with pytest.raises(ValueError):
            balb_redundant(three_camera_instance(), k=0)

    def test_multi_latency_counts_replicas(self):
        inst = three_camera_instance(n_shared=2, n_exclusive=0)
        assignment = {0: (0, 1), 1: (0,)}
        lat0 = multi_camera_latency(inst, assignment, 0)
        lat1 = multi_camera_latency(inst, assignment, 1)
        assert lat0 == pytest.approx(2.0)  # one 64-batch with 2 objects
        assert lat1 == pytest.approx(8.0)

    def test_infeasible_multi_detected(self):
        inst = three_camera_instance(n_shared=1, n_exclusive=0)
        assert not is_feasible_multi(inst, {0: ()})
        assert not is_feasible_multi(inst, {0: (0, 0)})
        assert not is_feasible_multi(inst, {})


class TestBandwidth:
    def test_frame_upload_mbps(self):
        rate = frame_upload_mbps((1280, 704), fps=10.0, bits_per_pixel=0.15)
        assert rate == pytest.approx(1280 * 704 * 0.15 * 10 / 1e6)

    def test_min_cover_single_camera_suffices(self):
        coverage = {0: [0], 1: [0], 2: [0, 1]}
        plan = min_view_cover(coverage, {0: 1.0, 1: 1.0})
        assert plan.cameras == (0,)
        assert plan.covered_objects == frozenset({0, 1, 2})

    def test_min_cover_prefers_cheap_camera(self):
        coverage = {0: [0, 1]}
        plan = min_view_cover(coverage, {0: 10.0, 1: 1.0})
        assert plan.cameras == (1,)

    def test_min_cover_multiple_cameras(self):
        coverage = {0: [0], 1: [1], 2: [0, 1]}
        plan = min_view_cover(coverage, {0: 1.0, 1: 1.0})
        assert set(plan.cameras) == {0, 1}

    def test_uncoverable_objects_reported(self):
        coverage = {0: [0], 1: []}
        plan = min_view_cover(coverage, {0: 1.0})
        assert plan.uncovered_objects == frozenset({1})
        assert 0 in plan.covered_objects

    def test_instance_plan_cheaper_than_streaming_all(self):
        inst = three_camera_instance()
        frame_sizes = {0: (1280, 704), 1: (1280, 704), 2: (1280, 960)}
        plan = upload_plan_for_instance(inst, frame_sizes)
        assert plan.total_upload_mbps <= all_cameras_upload_mbps(frame_sizes)
        # All shared+exclusive objects are covered by the chosen views.
        assert len(plan.covered_objects) == len(inst.objects)

    def test_invalid_bitrate_params_raise(self):
        with pytest.raises(ValueError):
            frame_upload_mbps((100, 100), fps=0)


class TestEnergy:
    def test_energy_model_basics(self):
        model = EnergyModel(active_power_w=10.0)
        assert model.inference_energy_mj(100.0) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            model.inference_energy_mj(-1.0)
        with pytest.raises(ValueError):
            EnergyModel(active_power_w=0.0)

    def test_models_resolved_by_device_name(self):
        inst = three_camera_instance()
        models = energy_models_for(inst)
        assert models[0] is DEFAULT_ENERGY_MODELS["jetson-agx-xavier"]
        assert models[2] is DEFAULT_ENERGY_MODELS["jetson-nano"]

    def test_energy_aware_saves_energy_vs_balb(self):
        """With a loose deadline, the energy scheduler may place load on
        low-power devices and must never use more energy than BALB."""
        inst = three_camera_instance(n_shared=8, n_exclusive=0)
        balb = balb_central(inst, include_full_frame=False)
        energy_assignment = energy_aware_assignment(
            inst, latency_deadline_ms=10_000.0
        )
        e_balb = assignment_energy_mj(inst, balb.assignment)
        e_energy = assignment_energy_mj(inst, energy_assignment)
        assert e_energy <= e_balb + 1e-9

    def test_deadline_respected_when_feasible(self):
        inst = three_camera_instance(n_shared=8, n_exclusive=0)
        deadline = 40.0
        assignment = energy_aware_assignment(inst, latency_deadline_ms=deadline)
        for cam in inst.camera_ids:
            assert camera_latency(inst, assignment, cam) <= deadline + 1e-9

    def test_coverage_beats_impossible_deadline(self):
        inst = three_camera_instance(n_shared=0, n_exclusive=3)
        assignment = energy_aware_assignment(inst, latency_deadline_ms=0.001)
        assert set(assignment) == {o.key for o in inst.objects}

    def test_invalid_deadline_raises(self):
        with pytest.raises(ValueError):
            energy_aware_assignment(three_camera_instance(), 0.0)


class TestQuality:
    def test_alpha_zero_balances_latency(self):
        inst = three_camera_instance(n_shared=6, n_exclusive=0)
        qualities = {(o.key, c): 0.5 for o in inst.objects for c in o.coverage}
        result = quality_aware_central(inst, qualities, alpha=0.0)
        # Pure latency mode: nothing goes to the overloaded Nano.
        assert all(cam != 2 for cam in result.assignment.values())

    def test_alpha_one_chases_quality(self):
        inst = three_camera_instance(n_shared=6, n_exclusive=0)
        # Nano has the best view of everything.
        qualities = {}
        for obj in inst.objects:
            for cam in obj.coverage:
                qualities[(obj.key, cam)] = 0.95 if cam == 2 else 0.2
        result = quality_aware_central(inst, qualities, alpha=1.0)
        assert all(cam == 2 for cam in result.assignment.values())
        assert result.mean_quality == pytest.approx(0.95)

    def test_intermediate_alpha_trades_off(self):
        inst = three_camera_instance(n_shared=8, n_exclusive=0)
        qualities = {}
        for obj in inst.objects:
            for cam in obj.coverage:
                qualities[(obj.key, cam)] = 0.9 if cam == 2 else 0.4
        lat_first = quality_aware_central(inst, qualities, alpha=0.0)
        balanced = quality_aware_central(inst, qualities, alpha=0.5)
        quality_first = quality_aware_central(inst, qualities, alpha=1.0)
        assert (
            lat_first.mean_quality
            <= balanced.mean_quality
            <= quality_first.mean_quality
        )
        assert max(lat_first.camera_latencies.values()) <= max(
            quality_first.camera_latencies.values()
        )

    def test_invalid_alpha_raises(self):
        inst = three_camera_instance()
        with pytest.raises(ValueError):
            quality_aware_central(inst, {}, alpha=1.5)
