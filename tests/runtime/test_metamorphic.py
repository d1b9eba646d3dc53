"""Metamorphic properties of whole pipeline runs.

At horizon 1 every frame is a key frame, so BALB never runs its
distributed stage between two central rounds: ``balb`` must equal
central-every-frame (``balb-cen``) frame for frame.
"""

import dataclasses

import pytest

from repro.runtime.pipeline import Pipeline, PipelineConfig, train_models
from repro.scenarios.aic21 import get_scenario


@pytest.mark.parametrize("scenario_name, seed", [("S1", 0), ("S3", 1)])
def test_horizon_one_balb_equals_central_every_frame(scenario_name, seed):
    scenario = get_scenario(scenario_name, seed=seed)
    config = PipelineConfig(
        policy="balb", horizon=1, n_horizons=30, seed=seed, train_duration_s=30.0
    )
    trained = train_models(scenario, config)
    balb = Pipeline(scenario, config, trained).run()
    central = Pipeline(
        scenario, dataclasses.replace(config, policy="balb-cen"), trained
    ).run()
    assert len(balb.frames) == 30
    assert all(frame.is_key_frame for frame in balb.frames)
    assert balb.frames == central.frames
