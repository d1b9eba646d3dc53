"""Tests for the imperfect-synchronization model."""

import numpy as np
import pytest

from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.runtime.synchronization import (
    SkewModel,
    drifted_lag,
    snapshot_objects,
)
from repro.scenarios.aic21 import scenario_s2
from repro.world.entities import ObjectClass, WorldObject
from tests.runtime.reference_history import WorldHistory


def obj(oid, x):
    return WorldObject.of_class(oid, ObjectClass.CAR, x, 0.0, 0.0, 10.0)


class TestSkewModel:
    def test_lags_bounded(self):
        model = SkewModel(max_lag_frames=3)
        lags = model.sample_lags([0, 1, 2], np.random.default_rng(0))
        assert set(lags) == {0, 1, 2}
        assert all(0 <= lag <= 3 for lag in lags.values())

    def test_zero_lag_model(self):
        model = SkewModel(max_lag_frames=0)
        lags = model.sample_lags([0, 1], np.random.default_rng(0))
        assert all(lag == 0 for lag in lags.values())

    def test_invalid_lag_raises(self):
        with pytest.raises(ValueError):
            SkewModel(max_lag_frames=-1)


class TestWorldHistory:
    """The lag oracle itself (``tests/runtime/reference_history.py``)."""

    def test_view_zero_is_latest(self):
        history = WorldHistory(depth=3)
        history.push([obj(0, 10.0)])
        history.push([obj(0, 20.0)])
        assert history.view(0)[0].x == 20.0
        assert history.view(1)[0].x == 10.0

    def test_lag_clamped_to_available_depth(self):
        history = WorldHistory(depth=5)
        history.push([obj(0, 10.0)])
        assert history.view(4)[0].x == 10.0  # only one snapshot available

    def test_buffer_depth_enforced(self):
        history = WorldHistory(depth=2)
        for i in range(5):
            history.push([obj(0, float(i))])
        assert len(history) == 2
        assert history.view(1)[0].x == 3.0

    def test_snapshots_are_isolated_copies(self):
        history = WorldHistory(depth=2)
        source = obj(0, 10.0)
        history.push([source])
        source.x = 99.0  # mutate the live object
        assert history.view(0)[0].x == 10.0

    def test_empty_history(self):
        assert WorldHistory(depth=2).view(0) == []

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            WorldHistory(depth=0)
        with pytest.raises(ValueError):
            WorldHistory(depth=2).view(-1)

    def test_empty_history_any_lag_is_empty(self):
        history = WorldHistory(depth=3)
        assert history.view(0) == []
        assert history.view(10) == []

    def test_lag_beyond_depth_clamps_to_oldest(self):
        history = WorldHistory(depth=3)
        for i in range(3):
            history.push([obj(0, float(i))])
        # lag 2 is the oldest retained; anything larger clamps to it
        assert history.view(2)[0].x == 0.0
        assert history.view(7)[0].x == 0.0

    def test_view_after_eviction_still_clamps(self):
        history = WorldHistory(depth=2)
        for i in range(4):
            history.push([obj(0, float(i))])
        # snapshots 0 and 1 were evicted; lag 5 clamps to snapshot 2
        assert history.view(5)[0].x == 2.0


class TestDriftedLag:
    def test_drift_adds_to_static_lag(self):
        assert drifted_lag(2, 0, depth=10) == 2
        assert drifted_lag(2, 3, depth=10) == 5

    def test_drift_clamps_to_history_depth(self):
        # A runaway clock can never ask for a frame the buffer evicted.
        assert drifted_lag(2, 50, depth=10) == 9
        assert drifted_lag(0, 9, depth=10) == 9


class TestSnapshotObjects:
    def test_snapshot_is_an_isolated_copy(self):
        source = obj(0, 10.0)
        frozen = snapshot_objects([source])
        source.x = 99.0
        assert frozen[0].x == 10.0
        assert frozen[0].object_id == 0

    def test_snapshot_of_empty_view(self):
        assert snapshot_objects([]) == []


class TestPipelineWithSkew:
    def test_skewed_run_completes(self):
        scenario = scenario_s2(seed=0)
        config = PipelineConfig(
            policy="balb",
            horizon=5,
            n_horizons=4,
            warmup_s=15.0,
            train_duration_s=40.0,
            max_camera_lag_frames=3,
        )
        trained = train_models(scenario, config)
        result = run_policy(scenario, "balb", config, trained)
        assert result.n_frames == 20
        assert 0.0 <= result.object_recall() <= 1.0

    def test_negative_lag_config_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(max_camera_lag_frames=-1)
