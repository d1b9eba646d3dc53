"""Extension experiments (paper Section V, implemented end to end).

* **EXT-OCC** — occlusion-aware redundancy: with inter-object occlusion
  enabled, compare BALB with k=1 vs k=2 cameras per object on the busy S3
  scenario. Expectation: redundancy recovers recall lost to occlusion at a
  bounded latency cost.
* **EXT-BW** — centralized processing: the bandwidth saved by uploading
  the minimum view cover rather than every stream.
* **EXT-EN** — energy-aware scheduling: fleet energy of the min-energy
  assignment under a real-time deadline vs plain BALB.
* **EXT-SYNC** — imperfect synchronization: recall degradation as the
  per-camera processing lag grows (the handover anomaly the paper
  describes in its limitations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro.core.balb import balb_central
from repro.core.bandwidth import (
    all_cameras_upload_mbps,
    upload_plan_for_instance,
)
from repro.core.energy import (
    assignment_energy_mj,
    energy_aware_assignment,
)
from repro.core.problem import system_latency
from repro.experiments.ablations import jetson_fleet_profiles, random_instance
from repro.experiments.report import format_table
from repro.runtime.pipeline import PipelineConfig, TrainedModels, run_policy
from repro.scenarios.builder import Scenario


# ----------------------------------------------------------------------
# EXT-OCC: occlusion + redundancy
# ----------------------------------------------------------------------
@dataclass
class OcclusionStudy:
    scenario: str
    recall_k1: float
    recall_k2: float
    latency_k1: float
    latency_k2: float


def occlusion_point(
    scenario: Scenario,
    base: PipelineConfig,
    trained: TrainedModels,
    k: int,
) -> Tuple[float, float]:
    """One redundancy level under occlusion: (recall, slowest-cam ms)."""
    cfg = replace(base, policy="balb", occlusion=True, redundancy=k)
    result = run_policy(scenario, "balb", cfg, trained)
    return result.object_recall(), result.mean_slowest_latency()


# ----------------------------------------------------------------------
# EXT-BW: bandwidth-minimizing view cover
# ----------------------------------------------------------------------
@dataclass
class BandwidthStudy:
    mean_cover_mbps: float
    all_streams_mbps: float
    mean_cameras_selected: float
    n_cameras: int

    @property
    def savings_fraction(self) -> float:
        if self.all_streams_mbps <= 0:
            raise ValueError("non-positive stream bandwidth")
        return 1.0 - self.mean_cover_mbps / self.all_streams_mbps


def bandwidth_study(
    n_trials: int = 25, n_objects: int = 15, seed: int = 0
) -> BandwidthStudy:
    """Min view cover vs streaming every camera, on random instances."""
    profiles = jetson_fleet_profiles(seed)
    frame_sizes = {cam: (1280, 704) for cam in profiles}
    rng = np.random.default_rng(seed)
    cover_rates, cover_counts = [], []
    for _ in range(n_trials):
        instance = random_instance(profiles, n_objects, rng)
        plan = upload_plan_for_instance(instance, frame_sizes)
        cover_rates.append(plan.total_upload_mbps)
        cover_counts.append(plan.n_cameras)
    return BandwidthStudy(
        mean_cover_mbps=float(np.mean(cover_rates)),
        all_streams_mbps=all_cameras_upload_mbps(frame_sizes),
        mean_cameras_selected=float(np.mean(cover_counts)),
        n_cameras=len(profiles),
    )


# ----------------------------------------------------------------------
# EXT-EN: energy-aware assignment
# ----------------------------------------------------------------------
@dataclass
class EnergyStudy:
    mean_energy_balb_mj: float
    mean_energy_aware_mj: float
    mean_latency_balb: float
    mean_latency_aware: float
    deadline_ms: float

    @property
    def energy_savings_fraction(self) -> float:
        if self.mean_energy_balb_mj <= 0:
            raise ValueError("non-positive energy")
        return 1.0 - self.mean_energy_aware_mj / self.mean_energy_balb_mj


def energy_study(
    n_trials: int = 25,
    n_objects: int = 20,
    deadline_ms: float = 100.0,
    seed: int = 0,
) -> EnergyStudy:
    """Energy-aware vs latency-only assignment on random instances."""
    profiles = jetson_fleet_profiles(seed)
    rng = np.random.default_rng(seed + 1)
    e_balb, e_aware, l_balb, l_aware = [], [], [], []
    for _ in range(n_trials):
        instance = random_instance(profiles, n_objects, rng)
        balb = balb_central(instance, include_full_frame=False)
        aware = energy_aware_assignment(instance, deadline_ms)
        e_balb.append(assignment_energy_mj(instance, balb.assignment))
        e_aware.append(assignment_energy_mj(instance, aware))
        l_balb.append(system_latency(instance, balb.assignment))
        l_aware.append(system_latency(instance, aware))
    return EnergyStudy(
        mean_energy_balb_mj=float(np.mean(e_balb)),
        mean_energy_aware_mj=float(np.mean(e_aware)),
        mean_latency_balb=float(np.mean(l_balb)),
        mean_latency_aware=float(np.mean(l_aware)),
        deadline_ms=deadline_ms,
    )


# ----------------------------------------------------------------------
# EXT-SYNC: imperfect synchronization
# ----------------------------------------------------------------------
@dataclass
class SynchronizationStudy:
    scenario: str
    lags: Tuple[int, ...]
    recalls: Tuple[float, ...]
    latencies: Tuple[float, ...]


def synchronization_point(
    scenario: Scenario,
    base: PipelineConfig,
    trained: TrainedModels,
    lag: int,
) -> Tuple[float, float]:
    """One camera-skew level: (recall, slowest-cam ms)."""
    cfg = replace(base, policy="balb", max_camera_lag_frames=lag)
    result = run_policy(scenario, "balb", cfg, trained)
    return result.object_recall(), result.mean_slowest_latency()


def format_extensions(
    occ: OcclusionStudy,
    bw: BandwidthStudy,
    en: EnergyStudy,
    sync: SynchronizationStudy,
) -> str:
    """Render the four extension studies as the EXTENSIONS section."""
    occ_table = format_table(
        ["k", "recall", "slowest-cam ms"],
        [
            (1, occ.recall_k1, round(occ.latency_k1, 1)),
            (2, occ.recall_k2, round(occ.latency_k2, 1)),
        ],
        title=f"EXT-OCC ({occ.scenario}, occlusion on): redundancy k=1 vs k=2",
    )
    return "\n\n".join(
        [
            occ_table,
            (
                "EXT-BW: min view cover uses "
                f"{bw.mean_cameras_selected:.1f}/{bw.n_cameras} cameras, "
                f"{bw.mean_cover_mbps:.1f} vs {bw.all_streams_mbps:.1f} Mbps "
                f"({bw.savings_fraction:.0%} saved)"
            ),
            (
                f"EXT-EN (deadline {en.deadline_ms:.0f} ms): energy "
                f"{en.mean_energy_aware_mj:.0f} vs {en.mean_energy_balb_mj:.0f} mJ "
                f"({en.energy_savings_fraction:.0%} saved) at latency "
                f"{en.mean_latency_aware:.1f} vs {en.mean_latency_balb:.1f} ms"
            ),
            format_table(
                ["max lag (frames)", "recall", "slowest-cam ms"],
                [
                    (lag, recall, round(latency, 1))
                    for lag, recall, latency in zip(
                        sync.lags, sync.recalls, sync.latencies
                    )
                ],
                title=f"EXT-SYNC ({sync.scenario}): camera skew sweep",
            ),
        ]
    )
