"""INGEST: burst-backpressure study on the ingest edge.

Sweeps the three ingest backpressure policies against scripted ingest
bursts of increasing harshness on one scenario, measuring what each
policy trades away: ``drop-oldest`` sheds frames (recall dips during the
window), ``degrade-to-distributed`` protects key frames but sits
overflowing cameras out of the central stage, ``coalesce-to-key-frame``
drops nothing and instead pays forced central resynchronizations.

The study also asserts the identity contract — with the burst spec
removed, the edge is a transparent pass-through — so the sweep cannot
silently drift away from the baseline it claims to perturb.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.experiments.report import format_table
from repro.faults.schedule import FaultSchedule
from repro.faults.spec import fault_source
from repro.runtime.pipeline import PipelineConfig, TrainedModels, run_policy
from repro.scenarios.builder import Scenario


@dataclass(frozen=True)
class IngestPoint:
    """One (ingest policy, burst spec) cell of the study."""

    ingest_policy: str
    burst: str
    recall: float
    offered: int
    served: int
    dropped: int
    coalesced: int
    stalls: int
    degraded: int
    key_frames: int


@dataclass(frozen=True)
class IngestStudy:
    """All cells of the INGEST experiment."""

    scenario: str
    identity_holds: bool  # the edge is transparent with bursts disabled
    sweep: Tuple[IngestPoint, ...]


def _counter_sum(result, name: str) -> int:
    return int(sum(
        m["value"] for m in result.metrics
        if m["kind"] == "counter" and m["name"] == name
    ))


def ingest_point(
    scenario: Scenario,
    base: PipelineConfig,
    trained: TrainedModels,
    ingest_policy: str,
    burst: str,
    capacity: int = 2,
) -> IngestPoint:
    """One (ingest policy, burst spec) cell.

    Clauses on cameras outside the scenario's rig are dropped, because
    ``Pipeline`` rejects them: the quick report runs the staggered sweep,
    written for cameras 0-2, on S2, whose rig has cameras 0 and 1. That
    clause never fired, so dropping it changes no number; the table
    still prints ``burst`` as given.
    """
    rig = {cam.camera_id for cam in scenario.cameras}
    schedule = fault_source(burst)
    assert isinstance(schedule, FaultSchedule)
    cfg = replace(
        base,
        faults=FaultSchedule(
            [e for e in schedule.events if e.camera_id is None or e.camera_id in rig]
        ),
        ingest_policy=ingest_policy,
        ingest_capacity=capacity,
    )
    result = run_policy(scenario, cfg.policy, cfg, trained)
    return IngestPoint(
        ingest_policy=ingest_policy,
        burst=burst,
        recall=result.object_recall(),
        offered=_counter_sum(result, "ingest_offered_total"),
        served=_counter_sum(result, "ingest_served_total"),
        dropped=_counter_sum(result, "ingest_dropped_total"),
        coalesced=_counter_sum(result, "ingest_coalesced_total"),
        stalls=_counter_sum(result, "ingest_stalled_frames_total"),
        degraded=_counter_sum(result, "ingest_degraded_frames_total"),
        key_frames=_counter_sum(result, "key_frames_total"),
    )


def identity_check(
    scenario: Scenario, base: PipelineConfig, trained: TrainedModels
) -> bool:
    """Is the ingest edge a transparent pass-through without bursts?

    The burst-free base run must equal the same run through the
    tightest, most intrusive edge (capacity 1, coalescing backlogs into
    key frames): same frames, same metrics apart from the host-time
    ``frame_wall_ms``. The report still labels the result "sync/event
    identity" (see :func:`format_ingest`).
    """
    plain = run_policy(scenario, base.policy, base, trained)
    edge = run_policy(
        scenario, base.policy,
        replace(
            base, ingest_capacity=1, ingest_policy="coalesce-to-key-frame"
        ),
        trained,
    )

    def stable(result):
        # frame_wall_ms is host time, excluded from the identity contract.
        return [m for m in result.metrics if m["name"] != "frame_wall_ms"]

    return plain.frames == edge.frames and stable(plain) == stable(edge)


def format_ingest(study: IngestStudy) -> str:
    """Render a study as the INGEST report section.

    The title's "(event runtime)" and the "sync/event" identity label
    are older names for the ingest edge and its transparency check;
    they stay because the quick-report golden pins these bytes.
    """
    table = format_table(
        ["ingest policy", "burst", "recall", "served", "dropped",
         "coalesced", "stalls", "degraded keys", "key frames"],
        [
            (p.ingest_policy, p.burst, round(p.recall, 3), p.served,
             p.dropped, p.coalesced, p.stalls, p.degraded, p.key_frames)
            for p in study.sweep
        ],
        title=f"INGEST ({study.scenario}): backpressure policies under "
              "ingest bursts (event runtime)",
    )
    identity = (
        "sync/event identity with bursts disabled: "
        + ("holds (byte-identical)" if study.identity_holds else "VIOLATED")
    )
    return "\n\n".join([table, identity])
