"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures and prints the
corresponding rows (run with ``pytest benchmarks/ --benchmark-only -s`` to
see them). Heavy end-to-end benchmarks share trained models per scenario
through session-scoped fixtures, and run one round each — the quantity
being measured is the experiment output, not micro-timing jitter.
"""

from __future__ import annotations

import pytest

from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.scenarios.aic21 import get_scenario

#: Scaled-down but statistically meaningful run lengths for benches.
BENCH_CONFIG = dict(
    horizon=10,
    n_horizons=20,
    warmup_s=30.0,
    train_duration_s=90.0,
    seed=0,
)


def bench_config(policy: str = "balb", **overrides) -> PipelineConfig:
    params = dict(BENCH_CONFIG)
    params.update(overrides)
    return PipelineConfig(policy=policy, **params)


def run_policies(scenario_name: str, policies, trained):
    """Each policy on one scenario with shared models and one test world."""
    scenario = get_scenario(scenario_name, seed=0)
    return {
        policy: run_policy(scenario, policy, bench_config(), trained)
        for policy in policies
    }


@pytest.fixture(scope="session")
def trained_by_scenario():
    """Association models + device profiles per scenario, trained once."""
    out = {}
    for name in ("S1", "S2", "S3"):
        scenario = get_scenario(name, seed=0)
        out[name] = train_models(scenario, bench_config())
    return out
