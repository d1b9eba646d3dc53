"""Chaos soak: seeded fault episodes under the invariant monitor.

``repro soak`` runs N short chaos **episodes** — each a full pipeline
run on a small scenario with a freshly compiled stochastic fault
schedule — with the always-on
:class:`repro.runtime.invariants.InvariantMonitor` armed. An episode
fails when the monitor raises; the harness then *shrinks* the episode's
fault schedule with a bounded delta-debugging loop (ddmin-lite) to the
smallest event subset that still reproduces a violation, and prints it
so the failure is directly replayable as a scripted ``--faults`` run.

Determinism contract: the report bytes depend only on
``(episodes, seed, fencing, preset)``. There is no wall clock and no
ordering hazard anywhere in the harness, so CI runs the same soak twice
and compares output files byte-for-byte — any drift is a determinism
regression in the runtime itself, which is exactly what the gate is for.

The per-episode fault schedules are compiled from the preset's
:class:`~repro.faults.model.FaultModel` with a derived seed
(``base * 7919 + 13 * i``, shifted by the pipeline's usual
:data:`~repro.faults.spec.FAULT_SEED_OFFSET`), while the simulation
seed stays fixed — episodes share one trained model set and differ only
in the faults thrown at them. Each shrunk schedule prints one
:func:`~repro.faults.spec.render_clause` line per event, so joining the
lines with ``;`` gives a ``--faults`` spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.faults.model import FaultModel
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.faults.spec import CHAOS_PRESETS, FAULT_SEED_OFFSET, render_clause
from repro.runtime.invariants import InvariantViolation
from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.scenarios.aic21 import get_scenario

#: ddmin-lite run budget per violating episode. Shrinking re-runs the
#: pipeline once per candidate subset, so the budget bounds soak time.
DEFAULT_SHRINK_BUDGET = 24


def _episode_seed(base_seed: int, index: int) -> int:
    """Derived fault seed for episode ``index`` (decorrelated, stable)."""
    return base_seed * 7919 + 13 * index


@dataclass(frozen=True)
class EpisodeOutcome:
    """One soak episode: its fault draw and what the monitor said."""

    index: int
    fault_seed: int
    n_events: int
    #: First line of the invariant violation, or ``None`` when clean.
    violation: Optional[str] = None
    #: Minimal violating event subset found by shrinking (empty = clean).
    shrunk_events: Tuple[FaultEvent, ...] = ()
    #: Pipeline re-runs the shrinking loop spent.
    shrink_runs: int = 0
    #: Fleet-health lifecycle counts (sensor-fault presets only).
    quarantines: int = 0
    readmissions: int = 0

    @property
    def passed(self) -> bool:
        return self.violation is None


@dataclass(frozen=True)
class SoakResult:
    """The full soak verdict, formatted by :func:`format_soak_report`."""

    scenario: str
    preset: str
    policy: str
    n_frames: int
    base_seed: int
    fencing: bool
    episodes: Tuple[EpisodeOutcome, ...] = field(default_factory=tuple)
    #: The preset carries degraded-sensor faults, so the report includes
    #: the fleet-health lifecycle columns.
    sensor_faults: bool = False

    @property
    def n_passed(self) -> int:
        return sum(1 for e in self.episodes if e.passed)

    @property
    def ok(self) -> bool:
        return self.n_passed == len(self.episodes)


def _soak_config(
    seed: int, faults: Optional[FaultSchedule], fencing: bool
) -> PipelineConfig:
    """The small, fast episode config (30 frames on scenario S1)."""
    return PipelineConfig(
        policy="balb",
        horizon=5,
        n_horizons=6,
        warmup_s=15.0,
        train_duration_s=40.0,
        seed=seed,
        faults=faults,
        epoch_fencing=fencing,
    )


def _run_episode(
    scenario, trained, base_seed: int, schedule: FaultSchedule, fencing: bool
) -> Tuple[Optional[str], int, int]:
    """Run one episode.

    Returns ``(violation, quarantines, readmissions)``: the first
    violation line (or ``None`` if clean) and the fleet-health lifecycle
    counts the episode racked up (0 on a violating run — it aborted).
    """
    config = _soak_config(base_seed, schedule, fencing)
    try:
        result = run_policy(scenario, config.policy, config, trained)
    except InvariantViolation as exc:
        return str(exc).splitlines()[0], 0, 0

    def counter_sum(name: str) -> int:
        return int(sum(
            m["value"] for m in result.metrics
            if m["kind"] == "counter" and m["name"] == name
        ))

    return (
        None,
        counter_sum("health_quarantines_total"),
        counter_sum("health_readmissions_total"),
    )


def _shrink(
    events: Sequence[FaultEvent],
    violates: Callable[[Sequence[FaultEvent]], bool],
    budget: int,
) -> Tuple[Tuple[FaultEvent, ...], int]:
    """ddmin-lite: smallest violating subset within a run ``budget``.

    Classic delta debugging over the event list: try dropping
    progressively smaller chunks, restarting whenever a drop still
    violates. Each candidate costs one pipeline run, so the loop is
    bounded by ``budget`` and returns the best subset found so far when
    the budget runs out.
    """
    current: List[FaultEvent] = list(events)
    runs = 0
    granularity = 2
    while len(current) > 1 and granularity <= len(current):
        chunk = -(-len(current) // granularity)  # ceil division
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk:]
            if not candidate or runs >= budget:
                continue
            runs += 1
            if violates(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunk == 1 or runs >= budget:
                break
            granularity = min(granularity * 2, len(current))
    return tuple(current), runs


def run_soak(
    episodes: int = 20,
    seed: int = 0,
    fencing: bool = True,
    preset: str = "wire",
    scenario_name: str = "S1",
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
) -> SoakResult:
    """Run the chaos soak and return its deterministic verdict."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if preset not in CHAOS_PRESETS:
        raise ValueError(
            f"unknown chaos preset {preset!r}; options: "
            f"{', '.join(sorted(CHAOS_PRESETS))}"
        )
    model: FaultModel = CHAOS_PRESETS[preset]
    sensor_faults = bool(
        model.freeze_rate
        or model.clock_drift_rate
        or model.flap_rate
        or model.fade_rate
    )
    scenario = get_scenario(scenario_name, seed=seed)
    camera_ids = [cam.camera_id for cam in scenario.cameras]
    config = _soak_config(seed, None, fencing)
    n_frames = config.horizon * config.n_horizons
    trained = train_models(scenario, config)

    outcomes: List[EpisodeOutcome] = []
    for i in range(episodes):
        fault_seed = _episode_seed(seed, i)
        schedule = model.compile(
            camera_ids, n_frames, fault_seed + FAULT_SEED_OFFSET
        )
        violation, quarantines, readmissions = _run_episode(
            scenario, trained, seed, schedule, fencing
        )
        if violation is None:
            outcomes.append(
                EpisodeOutcome(
                    i,
                    fault_seed,
                    len(schedule.events),
                    quarantines=quarantines,
                    readmissions=readmissions,
                )
            )
            continue

        def _violates(subset: Sequence[FaultEvent]) -> bool:
            sub_schedule = FaultSchedule(tuple(subset))
            return (
                _run_episode(scenario, trained, seed, sub_schedule, fencing)[0]
                is not None
            )

        shrunk, runs = _shrink(schedule.events, _violates, shrink_budget)
        outcomes.append(
            EpisodeOutcome(
                i,
                fault_seed,
                len(schedule.events),
                violation=violation,
                shrunk_events=shrunk,
                shrink_runs=runs,
            )
        )
    return SoakResult(
        scenario=scenario_name,
        preset=preset,
        policy=config.policy,
        n_frames=n_frames,
        base_seed=seed,
        fencing=fencing,
        episodes=tuple(outcomes),
        sensor_faults=sensor_faults,
    )


def format_soak_report(result: SoakResult) -> str:
    """Render the soak verdict as deterministic plain text."""
    lines = [
        "SOAK -- chaos soak invariant harness",
        (
            f"scenario {result.scenario} | preset {result.preset} | "
            f"policy {result.policy} | frames {result.n_frames}"
        ),
        (
            f"episodes {len(result.episodes)} | base seed "
            f"{result.base_seed} | fencing "
            f"{'on' if result.fencing else 'off'}"
        ),
        "",
    ]
    if result.sensor_faults:
        lines.append(
            f"{'episode':>7}  {'fault-seed':>10}  {'events':>6}  "
            f"{'quar':>4}  {'readm':>5}  verdict"
        )
        for ep in result.episodes:
            verdict = "ok" if ep.passed else "VIOLATION"
            lines.append(
                f"{ep.index:>7}  {ep.fault_seed:>10}  {ep.n_events:>6}  "
                f"{ep.quarantines:>4}  {ep.readmissions:>5}  {verdict}"
            )
    else:
        lines.append(
            f"{'episode':>7}  {'fault-seed':>10}  {'events':>6}  verdict"
        )
        for ep in result.episodes:
            verdict = "ok" if ep.passed else "VIOLATION"
            lines.append(
                f"{ep.index:>7}  {ep.fault_seed:>10}  {ep.n_events:>6}  "
                f"{verdict}"
            )
    for ep in result.episodes:
        if ep.passed:
            continue
        lines += ["", f"episode {ep.index} violation: {ep.violation}"]
        lines.append(
            f"  shrunk schedule ({len(ep.shrunk_events)}/{ep.n_events} "
            f"events, {ep.shrink_runs} shrink runs):"
        )
        lines += [f"    {render_clause(e)}" for e in ep.shrunk_events]
    lines.append("")
    if result.sensor_faults:
        lines.append(
            "fleet lifecycle: "
            f"{sum(e.quarantines for e in result.episodes)} quarantines, "
            f"{sum(e.readmissions for e in result.episodes)} readmissions"
        )
    lines += [
        f"episodes passed: {result.n_passed}/{len(result.episodes)}",
        f"verdict: {'PASS' if result.ok else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"
