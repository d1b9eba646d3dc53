"""FAULTS: degradation study under injected failures.

Sweeps two failure axes on one scenario and measures how gracefully each
scheduling policy degrades:

* **Camera-failure sweep** — stochastic camera crash/rejoin at increasing
  per-frame crash rates, for BALB vs SP vs balb-ind. Reports effective
  recall (coverage-lost object-frames excluded), the naive recall a
  fault-oblivious evaluation would compute, the coverage loss itself, and
  the slowest-camera latency. BALB's forced re-scheduling should hold
  effective recall close to fault-free while SP (static masks) leaks
  shared objects.
* **Link-loss sweep** — report/assignment message loss at increasing
  probabilities for BALB. Cameras that miss their assignment fall back to
  the stale decision; recall degrades smoothly rather than collapsing.
* **Scheduler-kill sweep** — a scripted central-scheduler outage for BALB
  vs SP. With failover, a warm-standby camera takes over from its
  replicated checkpoint within one heartbeat interval; the table reports
  takeovers, skipped key frames and recall under the outage.
* **Recovery-vs-heartbeat curve** — the same outage at increasing
  heartbeat intervals, showing the detection-latency/overhead trade-off
  of the lease protocol (recovery time grows linearly with the interval).

Every run is deterministic: the fault schedule is compiled from the run
seed before the frame loop starts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.experiments.report import format_table
from repro.faults import FaultModel
from repro.runtime.pipeline import PipelineConfig, TrainedModels, run_policy
from repro.scenarios.builder import Scenario


@dataclass(frozen=True)
class DegradationPoint:
    """One (policy, fault intensity) cell of the study."""

    policy: str
    crash_rate: float
    loss_rate: float
    recall: float  # coverage-lost object-frames excluded
    naive_recall: float  # lost counted as missed
    coverage_loss: float
    latency_ms: float


@dataclass(frozen=True)
class FailoverPoint:
    """One scheduler-outage run: availability and recovery figures."""

    policy: str
    heartbeat_frames: int
    recall: float
    takeovers: int
    skipped_key_frames: int
    scheduler_down_frames: int
    mean_recovery_ms: float


@dataclass(frozen=True)
class FaultToleranceStudy:
    """All sweeps of the FAULTS experiment."""

    scenario: str
    crash_sweep: Tuple[DegradationPoint, ...]
    loss_sweep: Tuple[DegradationPoint, ...]
    scheduler_sweep: Tuple[FailoverPoint, ...] = ()
    heartbeat_sweep: Tuple[FailoverPoint, ...] = ()

    def worst_recall_drop(self, policy: str) -> float:
        """Effective-recall drop from fault-free to the harshest crash rate."""
        points = [p for p in self.crash_sweep if p.policy == policy]
        if not points:
            raise ValueError(f"no crash-sweep points for policy {policy!r}")
        baseline = min(points, key=lambda p: p.crash_rate)
        worst = max(points, key=lambda p: p.crash_rate)
        return baseline.recall - worst.recall


def outage_spec_for(base: PipelineConfig) -> str:
    """One mid-run scheduler outage long enough to span several horizons."""
    return f"sched_crash:at={2 * base.horizon + 2},for={3 * base.horizon}"


def degradation_point(
    scenario: Scenario,
    base: PipelineConfig,
    trained: TrainedModels,
    policy: str,
    crash: float,
    loss: float,
) -> DegradationPoint:
    """One (policy, fault intensity) cell of the crash/loss sweeps."""
    model = FaultModel(crash_rate=crash, mean_outage_frames=8,
                       loss_prob=loss)
    cfg = replace(base, policy=policy, faults=model)
    result = run_policy(scenario, policy, cfg, trained)
    return DegradationPoint(
        policy=policy,
        crash_rate=crash,
        loss_rate=loss,
        recall=result.object_recall(),
        naive_recall=result.object_recall(count_lost_as_missed=True),
        coverage_loss=result.coverage_loss(),
        latency_ms=result.mean_slowest_latency(),
    )


def failover_point(
    scenario: Scenario,
    base: PipelineConfig,
    trained: TrainedModels,
    policy: str,
    heartbeat: int,
    outage_spec: str,
) -> FailoverPoint:
    """One scheduler-outage run of the failover sweeps."""
    cfg = replace(
        base, policy=policy, faults=outage_spec,
        failover_heartbeat_frames=heartbeat,
    )
    result = run_policy(scenario, policy, cfg, trained)

    def counter_sum(name: str) -> int:
        return int(sum(
            m["value"] for m in result.metrics
            if m["kind"] == "counter" and m["name"] == name
        ))

    recovery = next(
        (m for m in result.metrics
         if m["kind"] == "histogram"
         and m["name"] == "failover_recovery_ms"),
        None,
    )
    return FailoverPoint(
        policy=policy,
        heartbeat_frames=heartbeat,
        recall=result.object_recall(),
        takeovers=counter_sum("failover_takeovers_total"),
        skipped_key_frames=counter_sum("skipped_key_frames_total"),
        scheduler_down_frames=counter_sum("scheduler_down_frames_total"),
        mean_recovery_ms=(
            0.0 if recovery is None else float(recovery["mean"])
        ),
    )


def format_fault_tolerance(
    study: FaultToleranceStudy,
    drop_policies: Tuple[str, ...] = ("balb", "sp", "balb-ind"),
) -> str:
    """Render a study as the FAULTS report section."""
    crash_table = format_table(
        ["policy", "crash rate", "recall", "naive recall", "coverage loss",
         "slowest-cam ms"],
        [
            (p.policy, p.crash_rate, round(p.recall, 3),
             round(p.naive_recall, 3), round(p.coverage_loss, 3),
             round(p.latency_ms, 1))
            for p in study.crash_sweep
        ],
        title=f"FAULTS ({study.scenario}): camera-failure sweep",
    )
    loss_table = format_table(
        ["policy", "loss prob", "recall", "slowest-cam ms"],
        [
            (p.policy, p.loss_rate, round(p.recall, 3),
             round(p.latency_ms, 1))
            for p in study.loss_sweep
        ],
        title=f"FAULTS ({study.scenario}): link-loss sweep (balb)",
    )
    scheduler_table = format_table(
        ["policy", "recall", "takeovers", "skipped keys", "down frames",
         "mean recovery ms"],
        [
            (p.policy, round(p.recall, 3), p.takeovers,
             p.skipped_key_frames, p.scheduler_down_frames,
             round(p.mean_recovery_ms, 1))
            for p in study.scheduler_sweep
        ],
        title=f"FAULTS ({study.scenario}): scheduler-kill sweep "
              "(warm-standby failover)",
    )
    heartbeat_table = format_table(
        ["heartbeat frames", "recall", "skipped keys", "mean recovery ms"],
        [
            (p.heartbeat_frames, round(p.recall, 3),
             p.skipped_key_frames, round(p.mean_recovery_ms, 1))
            for p in study.heartbeat_sweep
        ],
        title=f"FAULTS ({study.scenario}): recovery time vs heartbeat "
              "interval (balb)",
    )
    drops = ", ".join(
        f"{policy}={study.worst_recall_drop(policy):+.3f}"
        for policy in drop_policies
    )
    return "\n\n".join(
        [crash_table, loss_table, scheduler_table, heartbeat_table,
         f"effective-recall drop at the harshest crash rate: {drops}"]
    )
