"""Table II: breakdown of per-frame latency overhead.

Per scenario, runs the full BALB pipeline and reports the mean per-frame
overhead of each framework component: central stage (association + central
BALB + scheduler communication, amortized over the horizon), optical-flow
tracking, the distributed BALB stage, and GPU batching. Per the paper's
protocol, each component's per-frame value is the maximum across cameras,
then averaged over frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.pipeline import PipelineConfig, TrainedModels, run_policy
from repro.scenarios.builder import Scenario


@dataclass
class OverheadRow:
    scenario: str
    central_ms: float
    tracking_ms: float
    distributed_ms: float
    batching_ms: float

    @property
    def total_ms(self) -> float:
        return (
            self.central_ms
            + self.tracking_ms
            + self.distributed_ms
            + self.batching_ms
        )


def measure_overheads(
    scenario: Scenario, config: PipelineConfig, trained: TrainedModels
) -> OverheadRow:
    """Run BALB on one scenario and extract the Table II row."""
    result = run_policy(scenario, "balb", config, trained)
    breakdown = result.overhead_breakdown()
    return OverheadRow(
        scenario=scenario.name,
        central_ms=breakdown.get("central", 0.0),
        tracking_ms=breakdown.get("tracking", 0.0),
        distributed_ms=breakdown.get("distributed", 0.0),
        batching_ms=breakdown.get("batching", 0.0),
    )
