"""Ablation studies of BALB's design choices (DESIGN.md Section 5).

Instance-level ablations on randomly generated MVS instances with the
profiled Jetson fleet:

* batch awareness (Definition 4 incomplete-batch reuse) on vs off,
* coverage-ordered object visiting (Algorithm 1 line 2) on vs off,
* BALB vs the exact optimum on small instances (approximation quality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.balb import balb_central
from repro.core.optimal import optimal_assignment
from repro.core.problem import MVSInstance, SchedObject, system_latency
from repro.devices.profiler import DeviceProfile, profile_device
from repro.devices.profiles import (
    JETSON_AGX_XAVIER,
    JETSON_NANO,
    JETSON_TX2,
    latency_model_for,
)
from repro.experiments.report import format_table


def jetson_fleet_profiles(seed: int = 0) -> Dict[int, DeviceProfile]:
    """The Table I S1 fleet: 2x Xavier, 2x TX2, 1x Nano, profiled."""
    devices = [
        JETSON_AGX_XAVIER,
        JETSON_AGX_XAVIER,
        JETSON_TX2,
        JETSON_TX2,
        JETSON_NANO,
    ]
    return {
        cam: profile_device(
            latency_model_for(device), device.name, seed=seed + cam
        )
        for cam, device in enumerate(devices)
    }


def random_instance(
    profiles: Dict[int, DeviceProfile],
    n_objects: int,
    rng: np.random.Generator,
    multi_view_prob: float = 0.6,
    size_choices: Sequence[int] = (64, 128, 256),
) -> MVSInstance:
    """A random MVS instance with mixed coverage-set sizes."""
    cams = sorted(profiles)
    objects: List[SchedObject] = []
    for j in range(n_objects):
        if rng.random() < multi_view_prob and len(cams) > 1:
            k = int(rng.integers(2, len(cams) + 1))
        else:
            k = 1
        coverage = rng.choice(cams, size=k, replace=False)
        objects.append(
            SchedObject(
                key=j,
                # Same draw as ``rng.choice(size_choices)``, at a fifth
                # of the cost.
                target_sizes={
                    int(c): int(size_choices[int(rng.integers(len(size_choices)))])
                    for c in coverage
                },
            )
        )
    return MVSInstance(profiles=profiles, objects=tuple(objects))


@dataclass
class AblationResult:
    name: str
    mean_latency_on: float
    mean_latency_off: float

    @property
    def degradation(self) -> float:
        """How much worse the ablated variant is (>= 1 means worse)."""
        if self.mean_latency_on <= 0:
            raise ValueError("non-positive latency")
        return self.mean_latency_off / self.mean_latency_on


def ablate_batch_awareness(
    n_trials: int = 30, n_objects: int = 30, seed: int = 0
) -> AblationResult:
    """Batch-aware camera choice vs pure min-latency placement."""
    profiles = jetson_fleet_profiles(seed)
    rng = np.random.default_rng(seed)
    on, off = [], []
    for _ in range(n_trials):
        instance = random_instance(profiles, n_objects, rng)
        res_on = balb_central(instance, include_full_frame=False, batch_aware=True)
        res_off = balb_central(instance, include_full_frame=False, batch_aware=False)
        # Scheduling-only latency: the full-frame term is identical across
        # variants and would mask the effect being ablated.
        on.append(system_latency(instance, res_on.assignment, False))
        off.append(system_latency(instance, res_off.assignment, False))
    return AblationResult(
        name="batch-awareness",
        mean_latency_on=float(np.mean(on)),
        mean_latency_off=float(np.mean(off)),
    )


def ablate_coverage_ordering(
    n_trials: int = 30, n_objects: int = 30, seed: int = 0
) -> AblationResult:
    """Least-flexible-first object ordering vs arbitrary (key) order."""
    profiles = jetson_fleet_profiles(seed)
    rng = np.random.default_rng(seed + 1)
    on, off = [], []
    for _ in range(n_trials):
        instance = random_instance(profiles, n_objects, rng)
        res_on = balb_central(instance, include_full_frame=False, coverage_ordered=True)
        res_off = balb_central(instance, include_full_frame=False, coverage_ordered=False)
        on.append(system_latency(instance, res_on.assignment, False))
        off.append(system_latency(instance, res_off.assignment, False))
    return AblationResult(
        name="coverage-ordering",
        mean_latency_on=float(np.mean(on)),
        mean_latency_off=float(np.mean(off)),
    )


@dataclass
class OptimalityResult:
    mean_ratio: float
    worst_ratio: float
    n_instances: int


def measure_optimality_gap(
    n_trials: int = 20, n_objects: int = 12, seed: int = 0
) -> OptimalityResult:
    """BALB vs the branch-and-bound optimum on small hard instances.

    Uses a 3-camera heterogeneous fleet, high multi-view probability and
    large target sizes so the assignment freedom actually matters.
    """
    fleet = jetson_fleet_profiles(seed)
    profiles = {k: fleet[k] for k in (0, 2, 4)}  # one AGX, one TX2, one Nano
    rng = np.random.default_rng(seed + 2)
    ratios = []
    for _ in range(n_trials):
        instance = random_instance(
            profiles, n_objects, rng,
            multi_view_prob=0.9, size_choices=(128, 256, 512),
        )
        res = balb_central(instance, include_full_frame=False)
        balb_lat = system_latency(instance, res.assignment, False)
        _, opt_lat = optimal_assignment(instance, include_full_frame=False)
        ratios.append(balb_lat / opt_lat)
    return OptimalityResult(
        mean_ratio=float(np.mean(ratios)),
        worst_ratio=float(np.max(ratios)),
        n_instances=n_trials,
    )


def run_ablations(seed: int = 0) -> str:
    """Run all instance-level ablations and render a summary table."""
    batch = ablate_batch_awareness(seed=seed)
    order = ablate_coverage_ordering(seed=seed)
    opt = measure_optimality_gap(seed=seed)
    table = format_table(
        ["ablation", "with (ms)", "without (ms)", "degradation"],
        [
            (a.name, round(a.mean_latency_on, 1), round(a.mean_latency_off, 1),
             a.degradation)
            for a in (batch, order)
        ],
        title="BALB design ablations",
    )
    return (
        table
        + f"\n\nBALB vs optimal on {opt.n_instances} small instances: "
        + f"mean ratio {opt.mean_ratio:.3f}, worst {opt.worst_ratio:.3f}"
    )
