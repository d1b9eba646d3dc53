"""Canonical ingest-burst workloads for the ingest edge.

Burst specs are ordinary fault-DSL strings (``burst:...`` clauses, see
:mod:`repro.faults.spec`), but experiments, benchmarks and CI smoke jobs
should perturb the *same* workloads rather than each inventing its own —
these builders are the shared vocabulary. All of them scale with the run
geometry (horizon length, total frames), so a quick CI run and a full
report run exercise structurally identical bursts.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "fleet_burst_spec",
    "single_camera_burst_spec",
    "staggered_burst_spec",
    "burst_sweep_specs",
]


def single_camera_burst_spec(
    horizon: int, total_frames: int, camera: int = 1
) -> str:
    """One camera stalls for a bit more than one horizon, mid-run.

    The window intentionally straddles a scheduled key frame so the
    backpressure policies diverge: droppers lose it, the degrade policy
    folds it, the coalescer promotes the backlog.
    """
    start = max(1, total_frames // 4)
    duration = min(horizon + 2, max(1, total_frames - start - 1))
    return f"burst:cam={camera},at={start},for={duration}"


def fleet_burst_spec(horizon: int, total_frames: int) -> str:
    """Every camera stalls at once (an uplink hiccup), for one horizon."""
    start = max(1, total_frames // 2)
    duration = min(horizon, max(1, total_frames - start - 1))
    return f"burst:at={start},for={duration}"


def staggered_burst_spec(
    horizon: int, total_frames: int, cameras: Tuple[int, ...] = (0, 1, 2)
) -> str:
    """Bursts marching across cameras, one horizon apart.

    Windows overlap pairwise, so at most two cameras stall at once —
    the scheduler always keeps a quorum of live feeds.
    """
    duration = min(horizon + 1, max(1, total_frames // 4))
    clauses = []
    for i, camera in enumerate(cameras):
        start = max(1, 1 + i * horizon)
        # Keep the window inside the run (frames held past the end would
        # never be released); skip clauses that can't fit at all.
        clamped = min(duration, total_frames - start - 1)
        if start >= total_frames or clamped < 1:
            break
        clauses.append(f"burst:cam={camera},at={start},for={clamped}")
    return ";".join(clauses)


def burst_sweep_specs(horizon: int, total_frames: int) -> Tuple[str, ...]:
    """The canonical mild-to-harsh burst sweep, in severity order."""
    return (
        single_camera_burst_spec(horizon, total_frames),
        staggered_burst_spec(horizon, total_frames),
        fleet_burst_spec(horizon, total_frames),
    )
