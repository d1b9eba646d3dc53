"""Tests for the end-to-end pipeline configuration and mechanics."""

import pytest

from repro.runtime.pipeline import (
    POLICIES,
    Pipeline,
    PipelineConfig,
    run_policy,
    train_models,
)
from repro.scenarios.aic21 import scenario_s2


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
