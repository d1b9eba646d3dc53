"""Figure 14: impact of the scheduling horizon length.

Sweeps the horizon T (frames between key frames) and reports BALB's object
recall and slowest-camera latency at each T. The paper's shape: longer
horizons amortize the full-frame cost (latency falls) but drift/association
errors accumulate (recall falls); T = 10 is the knee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.runtime.pipeline import PipelineConfig, TrainedModels, run_policy
from repro.scenarios.builder import Scenario


@dataclass
class HorizonRow:
    horizon: int
    recall: float
    slowest_camera_ms: float


def horizon_point(
    scenario: Scenario,
    base: PipelineConfig,
    trained: TrainedModels,
    horizon: int,
    frames_per_point: int,
) -> HorizonRow:
    """Run BALB at one horizon length and report the Figure 14 row.

    The run lasts ``frames_per_point // horizon`` horizons, at least four.
    """
    config = replace(
        base, horizon=horizon,
        n_horizons=max(4, frames_per_point // horizon),
    )
    result = run_policy(scenario, "balb", config, trained)
    return HorizonRow(
        horizon=horizon,
        recall=result.object_recall(),
        slowest_camera_ms=result.mean_slowest_latency(),
    )
