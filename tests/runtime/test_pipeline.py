"""Tests for the end-to-end pipeline configuration and mechanics."""

import numpy as np
import pytest

from repro.faults import FaultModel, FaultSchedule
from repro.obs.registry import MetricsRegistry
from repro.runtime.pipeline import (
    POLICIES,
    Pipeline,
    PipelineConfig,
    run_policy,
    train_models,
)
from repro.scenarios.aic21 import scenario_s2
from tests.obs.span_tree import span_tree_signature


def small_config(policy="balb", **kwargs):
    defaults = dict(
        policy=policy,
        horizon=5,
        n_horizons=4,
        warmup_s=10.0,
        train_duration_s=30.0,
        seed=0,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


class TestPipelineConfig:
    def test_all_policies_accepted(self):
        for policy in POLICIES:
            PipelineConfig(policy=policy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(policy="magic")

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(horizon=0)
        with pytest.raises(ValueError):
            PipelineConfig(n_horizons=0)

    def test_negative_gpu_jitter_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(gpu_jitter=-0.01)
        PipelineConfig(gpu_jitter=0.0)  # disabling jitter is fine

    @pytest.mark.parametrize(
        "field, value",
        [
            ("faults", "bogus"),
            ("faults", "crash:cam=1,at=-3"),
            ("faults", 3),
            ("train_duration_s", 0),
            ("seed", -1),
            ("max_camera_lag_frames", 2.5),
            ("gpu_jitter", float("nan")),
            ("warmup_s", float("inf")),
            ("train_duration_s", float("nan")),
        ],
    )
    def test_bad_value_rejected_at_construction_naming_the_field(
        self, field, value
    ):
        # Each of these used to construct cleanly and then raise from
        # inside Pipeline.run, or (NaN and inf pass every ordering check)
        # run on a meaningless value.
        with pytest.raises((ValueError, TypeError), match=field):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", 2.5),
            ("n_horizons", 3.0),
            ("seed", 1.5),
            ("redundancy", True),
            ("failover_heartbeat_frames", 2.5),
            ("checkpoint_every", 5.0),
            ("stop_after_frames", 17.5),
            ("ingest_capacity", 2.5),
            ("serve_subscribers", 3.0),
            ("serve_every", 1.5),
            ("warmup_s", -5.0),
        ],
    )
    def test_non_integer_count_or_negative_warmup_rejected(self, field, value):
        # Each used to construct: a float horizon or seed raised from
        # inside the run, a float serve_every broke the staleness bound
        # mid-run, float capacities ran as floats, and a negative warmup
        # silently skipped the warmup. (max_camera_lag_frames is in the
        # test above.)
        with pytest.raises(ValueError, match=field):
            PipelineConfig(checkpoint_path="x", **{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = PipelineConfig(
            horizon=np.int64(5), seed=np.int32(3), ingest_capacity=np.uint8(2)
        )
        assert config.horizon == 5

    @pytest.mark.parametrize("faults", [None, "", "  ", "heavy", "wire",
                                        "crash:cam=1,at=3,for=2"])
    def test_valid_fault_inputs_accepted(self, faults):
        assert PipelineConfig(faults=faults).faults == faults

    def test_fault_on_a_camera_outside_the_rig_rejected(self):
        """S2's cameras are 0 and 1; a crash on camera 99 would never fire."""
        with pytest.raises(ValueError, match=r"camera 99.*\[0, 1\]"):
            Pipeline(scenario_s2(seed=0), small_config(faults="crash:cam=99,at=2,for=5"))

    def test_every_edge_combines_with_checkpointing(self):
        """The burst and serving edges checkpoint like any other run."""
        PipelineConfig(
            faults="ingest", checkpoint_path="x", checkpoint_every=5,
            serve_subscribers=10,
        )


class TestTrainModels:
    def test_profiles_for_all_cameras(self):
        scenario = scenario_s2(seed=0)
        trained = train_models(scenario, small_config(), need_association=False)
        assert set(trained.profiles) == {0, 1}
        assert trained.associator is None

    def test_association_trained_when_needed(self):
        scenario = scenario_s2(seed=0)
        trained = train_models(scenario, small_config(), need_association=True)
        assert trained.associator is not None
        assert all(v > 0 for v in trained.typical_box_sizes.values())


class TestPipelineRuns:
    def test_frame_count(self):
        scenario = scenario_s2(seed=0)
        result = run_policy(scenario, "balb-ind", small_config("balb-ind"))
        assert result.n_frames == 5 * 4
        assert result.policy == "balb-ind"
        assert result.scenario == "S2"

    def test_full_policy_every_frame_is_key(self):
        scenario = scenario_s2(seed=0)
        result = run_policy(scenario, "full", small_config("full"))
        assert all(f.is_key_frame for f in result.frames)

    def test_balb_key_frames_once_per_horizon(self):
        scenario = scenario_s2(seed=0)
        result = run_policy(scenario, "balb", small_config("balb"))
        keys = [f.is_key_frame for f in result.frames]
        assert keys == [i % 5 == 0 for i in range(20)]

    def test_policy_needing_association_without_models_raises(self):
        scenario = scenario_s2(seed=0)
        trained = train_models(scenario, small_config(), need_association=False)
        with pytest.raises(ValueError):
            Pipeline(scenario, small_config("balb"), trained)

    def test_shared_trained_models_reused(self):
        scenario = scenario_s2(seed=0)
        config = small_config()
        trained = train_models(scenario, config)
        r1 = run_policy(scenario, "balb", config, trained)
        r2 = run_policy(scenario, "balb-cen", config, trained)
        assert r1.n_frames == r2.n_frames

    def test_balb_latency_below_full(self):
        scenario = scenario_s2(seed=0)
        config = small_config(n_horizons=8)
        trained = train_models(scenario, config)
        full = run_policy(scenario, "full", config, trained)
        balb = run_policy(scenario, "balb", config, trained)
        assert balb.mean_slowest_latency() < full.mean_slowest_latency()

    def test_overheads_recorded_on_regular_frames(self):
        scenario = scenario_s2(seed=0)
        result = run_policy(scenario, "balb", small_config())
        regular = [f for f in result.frames if not f.is_key_frame]
        assert regular
        for frame in regular:
            assert "tracking" in frame.overheads_ms
            assert "batching" in frame.overheads_ms

    def test_inference_recorded_for_every_camera(self):
        scenario = scenario_s2(seed=0)
        result = run_policy(scenario, "balb", small_config())
        for frame in result.frames:
            assert set(frame.inference_ms) == {0, 1}


@pytest.fixture(scope="module")
def s2_trained():
    scenario = scenario_s2(seed=0)
    return scenario, train_models(scenario, small_config())


def _stable_metrics(result):
    return [m for m in result.metrics if m["name"] != "frame_wall_ms"]


def _span_view(result):
    return (
        span_tree_signature(result.spans),
        [(s.name, s.depth, s.tags) for s in result.spans],
    )


class TestEmptyFaultPlan:
    """A plan that fires nothing runs exactly like no plan at all."""

    #: Onsets so rare the run's compiled schedule is empty.
    RARE = FaultModel(crash_rate=1e-12)

    def test_rare_model_is_not_null_but_compiles_to_no_events(self, s2_trained):
        scenario, trained = s2_trained
        assert not self.RARE.is_null
        for policy in ("balb", "full"):
            pipeline = Pipeline(
                scenario, small_config(policy, faults=self.RARE), trained
            )
            state = pipeline._init_state(MetricsRegistry())
            assert isinstance(state.faults, FaultSchedule)
            assert not state.faults

    def test_fault_only_exports_follow_the_plan(self, s2_trained):
        """A fault-free run exports no fault-only metric or span tag; a
        plan that fires exports them."""
        scenario, trained = s2_trained
        plain = Pipeline(scenario, small_config(trace=True), trained).run()
        crash = Pipeline(
            scenario,
            small_config(trace=True, faults="crash:cam=1,at=3,for=4"),
            trained,
        ).run()

        def names(result):
            return {m["name"] for m in result.metrics}

        def frame_tags(result):
            return {
                tuple(sorted(s.tags)) for s in result.spans if s.name == "frame"
            }

        fault_only = {
            "assignment_staleness_horizons", "camera_down_frames_total",
            "clock_drift_lag_frames", "coverage_lost_object_frames_total",
            "fault_events_total", "forced_key_frames_total",
            "message_retries_total", "messages_dropped_total",
            "quality_fade_factor", "scheduler_down_frames_total",
            "sensor_frozen_frames_total", "wire_corrupt_dropped_total",
        }
        assert not names(plain) & fault_only
        assert frame_tags(plain) == {("frame", "key")}
        assert {
            "assignment_staleness_horizons", "forced_key_frames_total"
        } <= names(crash)
        assert frame_tags(crash) == {("forced", "frame", "key")}

    @pytest.mark.parametrize("policy", ["balb", "full"])
    def test_empty_plans_equal_no_plan(self, s2_trained, policy):
        scenario, trained = s2_trained
        plain = Pipeline(
            scenario, small_config(policy, trace=True), trained
        ).run()
        for faults in ("", FaultSchedule(), FaultModel(), self.RARE):
            run = Pipeline(
                scenario,
                small_config(policy, trace=True, faults=faults),
                trained,
            ).run()
            assert run.frames == plain.frames
            assert _stable_metrics(run) == _stable_metrics(plain)
            assert _span_view(run) == _span_view(plain)
