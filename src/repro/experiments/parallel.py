"""Experiment harness: every report section as a job grid and a merge.

This module decomposes every report section into picklable *jobs* —
module-level cell functions plus positional arguments — and a pure
*merge* that renders the section body from the job results. The same
deduplicated job list runs inline (``workers=1``) or on a spawn-context
:class:`ProcessPoolExecutor` (``workers > 1``), and the merges see the
results in one fixed order, so the report bytes do not depend on the
worker count.

Three properties make that hold:

* every cell is a pure function of its arguments (the simulator and the
  trainers are seeded, never wall-clock driven);
* jobs are submitted and merged in a fixed order, so tables render rows
  in the same sequence whatever the scheduling;
* each process fits each distinct (scenario, seed, warm-up, duration)
  model set at most once: cells take their scenario and trained models
  from a per-process memo, and a warm-up wave fills it (and the
  content-addressed :mod:`repro.cache`, when one is active) before the
  section jobs run, so pool workers load from the cache instead of
  refitting.

Each process also simulates each world at most once: every job runs
inside the process's sharing scope (:mod:`repro.runtime.trajectory`),
so the pipeline runs of one world replay one recorded trajectory and
FIG10 and FIG11 share one association dataset. A recorded frame holds
the values a run on its own world would have stepped, so sharing moves
no byte either.

:class:`ReportProfile` carries every knob of every section.
``FULL_PROFILE`` is the paper-scale report; ``QUICK_PROFILE`` shrinks
each sweep for smoke tests and CI.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import ArtifactCache, use_cache
from repro.experiments.ablations import run_ablations
from repro.experiments.extensions import (
    OcclusionStudy,
    SynchronizationStudy,
    bandwidth_study,
    energy_study,
    format_extensions,
    occlusion_point,
    synchronization_point,
)
from repro.experiments.fault_tolerance import (
    FaultToleranceStudy,
    degradation_point,
    failover_point,
    format_fault_tolerance,
    outage_spec_for,
)
from repro.experiments.fig2_workload import run_figure2_text
from repro.experiments.fig10_classification import (
    ClassificationRow,
    evaluate_classifiers,
)
from repro.experiments.fig11_regression import (
    RegressionRow,
    evaluate_regressors,
)
from repro.experiments.fig12_recall import DEFAULT_POLICIES
from repro.experiments.fig13_latency import LATENCY_POLICIES
from repro.experiments.fig14_horizon import horizon_point
from repro.experiments.ingest import (
    IngestStudy,
    format_ingest,
    identity_check,
    ingest_point,
)
from repro.experiments.report import format_table
from repro.experiments.table2_overhead import OverheadRow, measure_overheads
from repro.obs import MetricsRegistry
from repro.runtime.pipeline import (
    PipelineConfig,
    TrainedModels,
    run_policy,
    train_models,
)
from repro.runtime.trajectory import SharedWorlds, share_worlds
from repro.scenarios.aic21 import get_scenario
from repro.scenarios.builder import Scenario
from repro.scenarios.bursts import burst_sweep_specs

# ----------------------------------------------------------------------
# Report profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReportProfile:
    """Every knob of every report section, in one picklable value.

    The defaults reproduce the historical report exactly; the
    ``QUICK_PROFILE`` instance shrinks sweeps for smoke runs.
    """

    name: str = "full"
    scenarios: Tuple[str, ...] = ("S1", "S2", "S3")
    # Shared pipeline knobs (FIG12/FIG13/FIG14/TAB2/EXTENSIONS training).
    train_duration_s: float = 120.0
    warmup_s: float = 30.0
    # FIG2 workload trace.
    fig2_duration_s: float = 120.0
    fig2_warmup_s: float = 30.0
    # FIG10/FIG11 association-model evaluation.
    eval_duration_s: float = 150.0
    # FIG12/FIG13 policy runs.
    policy_n_horizons: int = 40
    # FIG14 horizon sweep.
    fig14_scenario: str = "S1"
    fig14_horizons: Tuple[int, ...] = (2, 5, 10, 20, 30)
    fig14_frames_per_point: int = 300
    # TAB2 overhead breakdown.
    tab2_n_horizons: int = 30
    # FAULTS sweeps.
    faults_scenario: str = "S1"
    faults_horizon: int = 5
    faults_n_horizons: int = 10
    faults_train_duration_s: float = 90.0
    faults_crash_rates: Tuple[float, ...] = (0.0, 0.01, 0.03)
    faults_loss_rates: Tuple[float, ...] = (0.0, 0.1, 0.3)
    faults_policies: Tuple[str, ...] = ("balb", "sp", "balb-ind")
    faults_scheduler_policies: Tuple[str, ...] = ("balb", "sp")
    faults_heartbeats: Tuple[int, ...] = (2, 5, 10)
    # INGEST backpressure sweep.
    ingest_scenario: str = "S1"
    ingest_horizon: int = 5
    ingest_n_horizons: int = 10
    ingest_train_duration_s: float = 90.0
    ingest_capacity: int = 2
    ingest_policies: Tuple[str, ...] = (
        "drop-oldest", "degrade-to-distributed", "coalesce-to-key-frame"
    )
    # EXTENSIONS studies.
    ext_occ_scenario: str = "S3"
    ext_occ_n_horizons: int = 25
    ext_sync_scenario: str = "S3"
    ext_sync_n_horizons: int = 20
    ext_sync_lags: Tuple[int, ...] = (0, 2, 5)
    ext_trials: int = 25

    def policy_config(self, seed: int) -> PipelineConfig:
        """The FIG12/FIG13 run config."""
        return PipelineConfig(
            policy="balb", n_horizons=self.policy_n_horizons,
            train_duration_s=self.train_duration_s, warmup_s=self.warmup_s,
            seed=seed,
        )

    def fig14_config(self, seed: int) -> PipelineConfig:
        """The FIG14 base config (each point sets its own horizon)."""
        return PipelineConfig(
            policy="balb", train_duration_s=self.train_duration_s,
            warmup_s=self.warmup_s, seed=seed,
        )

    def tab2_config(self, seed: int) -> PipelineConfig:
        """The Table II run config."""
        return PipelineConfig(
            policy="balb", n_horizons=self.tab2_n_horizons,
            train_duration_s=self.train_duration_s, warmup_s=self.warmup_s,
            seed=seed,
        )

    def faults_config(self, seed: int) -> PipelineConfig:
        """The base config the FAULTS sweeps share."""
        return PipelineConfig(
            policy="balb", horizon=self.faults_horizon,
            n_horizons=self.faults_n_horizons, warmup_s=self.warmup_s,
            train_duration_s=self.faults_train_duration_s, seed=seed,
        )

    def ingest_config(self, seed: int) -> PipelineConfig:
        """The base config the INGEST sweep shares."""
        return PipelineConfig(
            policy="balb", horizon=self.ingest_horizon,
            n_horizons=self.ingest_n_horizons, warmup_s=self.warmup_s,
            train_duration_s=self.ingest_train_duration_s, seed=seed,
        )

    def occ_config(self, seed: int) -> PipelineConfig:
        """The EXT-OCC base config."""
        return PipelineConfig(
            policy="balb", n_horizons=self.ext_occ_n_horizons,
            warmup_s=self.warmup_s, train_duration_s=self.train_duration_s,
            seed=seed,
        )

    def sync_config(self, seed: int) -> PipelineConfig:
        """The EXT-SYNC base config."""
        return PipelineConfig(
            policy="balb", n_horizons=self.ext_sync_n_horizons,
            warmup_s=self.warmup_s, train_duration_s=self.train_duration_s,
            seed=seed,
        )


FULL_PROFILE = ReportProfile()
"""The historical report: every knob at its original default."""

QUICK_PROFILE = ReportProfile(
    name="quick",
    scenarios=("S2",),
    train_duration_s=12.0,
    warmup_s=6.0,
    fig2_duration_s=20.0,
    fig2_warmup_s=6.0,
    eval_duration_s=20.0,
    policy_n_horizons=2,
    fig14_scenario="S2",
    fig14_horizons=(2, 4),
    fig14_frames_per_point=8,
    tab2_n_horizons=2,
    faults_scenario="S2",
    faults_horizon=4,
    faults_n_horizons=3,
    faults_train_duration_s=12.0,
    faults_crash_rates=(0.0, 0.02),
    faults_loss_rates=(0.0, 0.2),
    faults_policies=("balb", "sp"),
    faults_scheduler_policies=("balb",),
    faults_heartbeats=(2, 4),
    ext_occ_scenario="S2",
    ext_occ_n_horizons=2,
    ext_sync_scenario="S2",
    ext_sync_n_horizons=2,
    ext_sync_lags=(0, 2),
    ext_trials=5,
    ingest_scenario="S2",
    ingest_horizon=4,
    ingest_n_horizons=3,
    ingest_train_duration_s=12.0,
    ingest_policies=("drop-oldest", "coalesce-to-key-frame"),
)
"""A minutes-not-hours profile for smoke tests and CI."""


# ----------------------------------------------------------------------
# Jobs and the process-pool executor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One picklable unit of section work: ``fn(*args)`` in a worker."""

    section: str
    key: Any
    fn: Callable[..., Any]
    args: Tuple[Any, ...]


@dataclass(frozen=True)
class JobResult:
    """A job's return value plus its worker-side timing and cache hits."""

    section: str
    key: Any
    value: Any
    elapsed_s: float
    cache_hits: int
    cache_misses: int


def _execute_job(job: Job, cache_root: Optional[str]) -> JobResult:
    """Run one job (in a worker process) under its own cache + registry."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    with share_worlds(_WORLDS):
        if cache_root is None:
            value = job.fn(*job.args)
            hits = misses = 0
        else:
            cache = ArtifactCache(cache_root, registry=registry)
            with use_cache(cache):
                value = job.fn(*job.args)
            hits, misses = cache.hits, cache.misses
    elapsed = time.perf_counter() - start
    return JobResult(
        section=job.section, key=job.key, value=value, elapsed_s=elapsed,
        cache_hits=hits, cache_misses=misses,
    )


def _run_waves(
    waves: Sequence[Sequence[Job]],
    workers: int,
    cache_root: Optional[str],
) -> List[List[JobResult]]:
    """Run each wave's jobs to completion, in order, before the next.

    Inline runs share this process's trained-model memo and simulated
    worlds and clear both at the end; pool workers keep theirs until the
    pool shuts down.
    """
    if workers <= 1:
        try:
            return [
                [_execute_job(job, cache_root) for job in wave]
                for wave in waves
            ]
        finally:
            _TRAINED.clear()
            _WORLDS.clear()
    ctx = get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        results = []
        for wave in waves:
            futures = [
                pool.submit(_execute_job, job, cache_root) for job in wave
            ]
            results.append([future.result() for future in futures])
        return results


def _fingerprint(job: Job) -> bytes:
    """Identity of a job's *work* (not its section), for deduplication."""
    return pickle.dumps(
        (job.fn.__module__, job.fn.__qualname__, job.args), protocol=4
    )


# ----------------------------------------------------------------------
# Cell functions (module-level, picklable)
# ----------------------------------------------------------------------

#: Per-process memo of scenarios and their trained models, keyed by
#: (scenario, seed, warm-up, training duration) — the inputs training
#: reads. Cells that share a key share one fit. It is module state
#: because a pool worker must keep it across the jobs it runs; inline
#: runs clear it when they finish (see ``_run_waves``).
_TRAINED: Dict[Tuple[str, int, float, float], Tuple[Scenario, TrainedModels]] = {}

#: Per-process sharing scope of every job: what this process simulated
#: (recorded world trajectories, association datasets), kept and cleared
#: with ``_TRAINED``. Trajectories are keyed by scenario identity, so the
#: runs that share a ``_TRAINED`` scenario share its worlds.
_WORLDS = SharedWorlds()


def _trained(
    scenario_name: str, config: PipelineConfig
) -> Tuple[Scenario, TrainedModels]:
    """The scenario and its trained models for ``config``, fit once."""
    key = (
        scenario_name, config.seed, config.warmup_s, config.train_duration_s
    )
    entry = _TRAINED.get(key)
    if entry is None:
        scenario = get_scenario(scenario_name, seed=config.seed)
        entry = (scenario, train_models(scenario, config))
        _TRAINED[key] = entry
    return entry


def _warm_cell(
    scenario_name: str, warmup_s: float, train_duration_s: float, seed: int
) -> str:
    """Train one scenario's models into the memo (and the active cache)."""
    _trained(scenario_name, PipelineConfig(
        policy="balb", warmup_s=warmup_s, train_duration_s=train_duration_s,
        seed=seed,
    ))
    return scenario_name


def _policy_cell(
    scenario_name: str, policy: str, config: PipelineConfig
) -> Dict[str, Any]:
    """One (scenario, policy) run: the FIG12/FIG13 measurements."""
    scenario, trained = _trained(scenario_name, config)
    result = run_policy(scenario, policy, config, trained)
    return {
        "scenario": result.scenario,
        "recall": result.object_recall(),
        "latency_ms": result.mean_slowest_latency(),
    }


def _fig14_cell(
    scenario_name: str,
    base: PipelineConfig,
    horizon: int,
    frames_per_point: int,
):
    scenario, trained = _trained(scenario_name, base)
    return horizon_point(scenario, base, trained, horizon, frames_per_point)


def _tab2_cell(scenario_name: str, config: PipelineConfig) -> OverheadRow:
    scenario, trained = _trained(scenario_name, config)
    return measure_overheads(scenario, config, trained)


def _fault_degradation_cell(
    scenario_name: str,
    base: PipelineConfig,
    policy: str,
    crash: float,
    loss: float,
):
    scenario, trained = _trained(scenario_name, base)
    return degradation_point(scenario, base, trained, policy, crash, loss)


def _fault_failover_cell(
    scenario_name: str, base: PipelineConfig, policy: str, heartbeat: int
):
    scenario, trained = _trained(scenario_name, base)
    return failover_point(
        scenario, base, trained, policy, heartbeat, outage_spec_for(base)
    )


def _ingest_cell(
    scenario_name: str,
    base: PipelineConfig,
    ingest_policy: str,
    burst: str,
    capacity: int,
):
    scenario, trained = _trained(scenario_name, base)
    return ingest_point(scenario, base, trained, ingest_policy, burst, capacity)


def _ingest_identity_cell(scenario_name: str, base: PipelineConfig) -> bool:
    scenario, trained = _trained(scenario_name, base)
    return identity_check(scenario, base, trained)


def _ext_occ_cell(
    scenario_name: str, base: PipelineConfig, k: int
) -> Tuple[float, float]:
    scenario, trained = _trained(scenario_name, base)
    return occlusion_point(scenario, base, trained, k)


def _ext_sync_cell(
    scenario_name: str, base: PipelineConfig, lag: int
) -> Tuple[float, float]:
    scenario, trained = _trained(scenario_name, base)
    return synchronization_point(scenario, base, trained, lag)


def _ext_bw_cell(n_trials: int, seed: int):
    return bandwidth_study(n_trials=n_trials, seed=seed)


def _ext_en_cell(n_trials: int, seed: int):
    return energy_study(n_trials=n_trials, seed=seed)


# ----------------------------------------------------------------------
# Section registry: job grid and deterministic merge
# ----------------------------------------------------------------------

TrainKey = Tuple[str, float, float]  # (scenario, warmup_s, train_duration_s)


def _no_train_keys(profile: ReportProfile) -> Tuple[TrainKey, ...]:
    return ()


@dataclass(frozen=True)
class Section:
    """One report section: how to split it into jobs and merge them."""

    name: str
    jobs: Callable[[int, ReportProfile], List[Job]]
    merge: Callable[[Dict[Any, Any], int, ReportProfile], str]
    train_keys: Callable[[ReportProfile], Tuple[TrainKey, ...]] = field(
        default=_no_train_keys
    )


def _speedup(baseline_ms: float, improved_ms: float) -> float:
    """`speedup_vs` on raw latencies (same guard, same division)."""
    if improved_ms <= 0:
        raise ValueError("improved run has non-positive latency")
    return baseline_ms / improved_ms


# -- FIG2 ---------------------------------------------------------------


def _fig2_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    return [Job(
        "FIG2", "fig2", run_figure2_text,
        (seed, profile.fig2_duration_s, profile.fig2_warmup_s),
    )]


def _fig2_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    return str(results["fig2"])


# -- FIG10 / FIG11 ------------------------------------------------------


def _fig10_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    return [
        Job("FIG10", name, evaluate_classifiers,
            (name, profile.eval_duration_s, seed))
        for name in profile.scenarios
    ]


def _fig10_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    rows: List[ClassificationRow] = []
    for name in profile.scenarios:
        rows.extend(results[name])
    return format_table(
        ["scenario", "model", "precision", "recall", "f1"],
        [(r.scenario, r.model, r.precision, r.recall, r.f1) for r in rows],
        title="Figure 10: cross-camera visibility classification",
    )


def _fig11_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    return [
        Job("FIG11", name, evaluate_regressors,
            (name, profile.eval_duration_s, seed))
        for name in profile.scenarios
    ]


def _fig11_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    rows: List[RegressionRow] = []
    for name in profile.scenarios:
        rows.extend(results[name])
    return format_table(
        ["scenario", "model", "MAE (px)"],
        [(r.scenario, r.model, round(r.mae_px, 1)) for r in rows],
        title="Figure 11: cross-camera location regression",
    )


# -- FIG12 / FIG13 ------------------------------------------------------


def _scenario_train_keys(profile: ReportProfile) -> Tuple[TrainKey, ...]:
    return tuple(
        (name, profile.warmup_s, profile.train_duration_s)
        for name in profile.scenarios
    )


def _fig12_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    config = profile.policy_config(seed)
    return [
        Job("FIG12", (name, policy), _policy_cell, (name, policy, config))
        for name in profile.scenarios
        for policy in DEFAULT_POLICIES
    ]


def _fig12_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    rows = [
        (results[(name, policy)]["scenario"], policy,
         results[(name, policy)]["recall"])
        for name in profile.scenarios
        for policy in DEFAULT_POLICIES
    ]
    return format_table(
        ["scenario", "policy", "object recall"],
        rows,
        title="Figure 12: object recall by scheduling policy",
    )


def _fig13_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    config = profile.policy_config(seed)
    return [
        Job("FIG13", (name, policy), _policy_cell, (name, policy, config))
        for name in profile.scenarios
        for policy in LATENCY_POLICIES
    ]


def _fig13_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    rows = []
    summaries = []
    for name in profile.scenarios:
        cells = {p: results[(name, p)] for p in LATENCY_POLICIES}
        full_ms = cells["full"]["latency_ms"]
        for policy in LATENCY_POLICIES:
            cell = cells[policy]
            rows.append((
                cell["scenario"], policy, round(cell["latency_ms"], 1),
                _speedup(full_ms, cell["latency_ms"]),
            ))
        balb_ms = cells["balb"]["latency_ms"]
        summaries.append((
            cells["balb"]["scenario"],
            _speedup(full_ms, balb_ms),
            _speedup(cells["balb-ind"]["latency_ms"], balb_ms),
            _speedup(cells["sp"]["latency_ms"], balb_ms),
        ))
    table1 = format_table(
        ["scenario", "policy", "slowest-cam ms", "speedup vs full"],
        rows,
        title="Figure 13: per-frame inference latency",
    )
    table2 = format_table(
        ["scenario", "BALB/Full", "BALB/Ind", "BALB/SP"],
        summaries,
        title="Headline speedups (paper: 6.85/6.18/2.45 vs Full; 1.88x mean vs SP)",
    )
    return table1 + "\n\n" + table2


# -- FIG14 --------------------------------------------------------------


def _fig14_train_keys(profile: ReportProfile) -> Tuple[TrainKey, ...]:
    return ((profile.fig14_scenario, profile.warmup_s, profile.train_duration_s),)


def _fig14_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    base = profile.fig14_config(seed)
    return [
        Job(
            "FIG14", horizon, _fig14_cell,
            (profile.fig14_scenario, base, horizon,
             profile.fig14_frames_per_point),
        )
        for horizon in profile.fig14_horizons
    ]


def _fig14_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    rows = [results[horizon] for horizon in profile.fig14_horizons]
    return format_table(
        ["horizon T", "object recall", "slowest-cam ms"],
        [(r.horizon, r.recall, round(r.slowest_camera_ms, 1)) for r in rows],
        title=f"Figure 14: scheduling horizon sweep on {profile.fig14_scenario}",
    )


# -- TAB2 ---------------------------------------------------------------


def _tab2_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    config = profile.tab2_config(seed)
    return [
        Job("TAB2", name, _tab2_cell, (name, config))
        for name in profile.scenarios
    ]


def _tab2_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    rows: List[OverheadRow] = [results[name] for name in profile.scenarios]
    return format_table(
        ["scenario", "central", "tracking", "distributed", "batching", "total"],
        [
            (
                r.scenario,
                round(r.central_ms, 2),
                round(r.tracking_ms, 2),
                round(r.distributed_ms, 2),
                round(r.batching_ms, 2),
                round(r.total_ms, 2),
            )
            for r in rows
        ],
        title="Table II: per-frame latency overhead breakdown (ms)",
    )


# -- ABLATIONS ----------------------------------------------------------


def _ablations_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    return [Job("ABLATIONS", "ablations", run_ablations, (seed,))]


def _ablations_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    return str(results["ablations"])


# -- EXTENSIONS ---------------------------------------------------------


def _extensions_train_keys(profile: ReportProfile) -> Tuple[TrainKey, ...]:
    return (
        (profile.ext_occ_scenario, profile.warmup_s, profile.train_duration_s),
        (profile.ext_sync_scenario, profile.warmup_s, profile.train_duration_s),
    )


def _extensions_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    occ_base = profile.occ_config(seed)
    sync_base = profile.sync_config(seed)
    jobs = [
        Job("EXTENSIONS", ("occ", k), _ext_occ_cell,
            (profile.ext_occ_scenario, occ_base, k))
        for k in (1, 2)
    ]
    jobs.append(
        Job("EXTENSIONS", "bw", _ext_bw_cell, (profile.ext_trials, seed))
    )
    jobs.append(
        Job("EXTENSIONS", "en", _ext_en_cell, (profile.ext_trials, seed))
    )
    jobs.extend(
        Job("EXTENSIONS", ("sync", lag), _ext_sync_cell,
            (profile.ext_sync_scenario, sync_base, lag))
        for lag in profile.ext_sync_lags
    )
    return jobs


def _extensions_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    occ = OcclusionStudy(
        scenario=profile.ext_occ_scenario,
        recall_k1=results[("occ", 1)][0],
        recall_k2=results[("occ", 2)][0],
        latency_k1=results[("occ", 1)][1],
        latency_k2=results[("occ", 2)][1],
    )
    sync_points = [results[("sync", lag)] for lag in profile.ext_sync_lags]
    sync = SynchronizationStudy(
        scenario=profile.ext_sync_scenario,
        lags=tuple(profile.ext_sync_lags),
        recalls=tuple(p[0] for p in sync_points),
        latencies=tuple(p[1] for p in sync_points),
    )
    return format_extensions(occ, results["bw"], results["en"], sync)


# -- FAULTS -------------------------------------------------------------


def _faults_train_keys(profile: ReportProfile) -> Tuple[TrainKey, ...]:
    return ((
        profile.faults_scenario, profile.warmup_s,
        profile.faults_train_duration_s,
    ),)


def _faults_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    base = profile.faults_config(seed)
    name = profile.faults_scenario
    jobs = [
        Job("FAULTS", ("sched", policy), _fault_failover_cell,
            (name, base, policy, base.horizon))
        for policy in profile.faults_scheduler_policies
    ]
    jobs.extend(
        Job("FAULTS", ("hb", hb), _fault_failover_cell, (name, base, "balb", hb))
        for hb in profile.faults_heartbeats
    )
    jobs.extend(
        Job("FAULTS", ("crash", policy, crash), _fault_degradation_cell,
            (name, base, policy, crash, 0.0))
        for policy in profile.faults_policies
        for crash in profile.faults_crash_rates
    )
    jobs.extend(
        Job("FAULTS", ("loss", loss), _fault_degradation_cell,
            (name, base, "balb", 0.0, loss))
        for loss in profile.faults_loss_rates
    )
    return jobs


def _faults_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    study = FaultToleranceStudy(
        scenario=profile.faults_scenario,
        crash_sweep=tuple(
            results[("crash", policy, crash)]
            for policy in profile.faults_policies
            for crash in profile.faults_crash_rates
        ),
        loss_sweep=tuple(
            results[("loss", loss)] for loss in profile.faults_loss_rates
        ),
        scheduler_sweep=tuple(
            results[("sched", policy)]
            for policy in profile.faults_scheduler_policies
        ),
        heartbeat_sweep=tuple(
            results[("hb", hb)] for hb in profile.faults_heartbeats
        ),
    )
    return format_fault_tolerance(study, drop_policies=profile.faults_policies)


# -- INGEST -------------------------------------------------------------


def _ingest_train_keys(profile: ReportProfile) -> Tuple[TrainKey, ...]:
    return ((
        profile.ingest_scenario, profile.warmup_s,
        profile.ingest_train_duration_s,
    ),)


def _ingest_bursts(profile: ReportProfile) -> Tuple[str, ...]:
    base = profile.ingest_config(0)
    return burst_sweep_specs(base.horizon, base.horizon * base.n_horizons)


def _ingest_jobs(seed: int, profile: ReportProfile) -> List[Job]:
    base = profile.ingest_config(seed)
    name = profile.ingest_scenario
    jobs = [
        Job("INGEST", ("identity",), _ingest_identity_cell, (name, base))
    ]
    jobs.extend(
        Job("INGEST", ("cell", policy, burst), _ingest_cell,
            (name, base, policy, burst, profile.ingest_capacity))
        for policy in profile.ingest_policies
        for burst in _ingest_bursts(profile)
    )
    return jobs


def _ingest_merge(
    results: Dict[Any, Any], seed: int, profile: ReportProfile
) -> str:
    study = IngestStudy(
        scenario=profile.ingest_scenario,
        identity_holds=results[("identity",)],
        sweep=tuple(
            results[("cell", policy, burst)]
            for policy in profile.ingest_policies
            for burst in _ingest_bursts(profile)
        ),
    )
    return format_ingest(study)


SECTIONS: Dict[str, Section] = {
    sec.name: sec
    for sec in (
        Section("FIG2", _fig2_jobs, _fig2_merge),
        Section("FIG10", _fig10_jobs, _fig10_merge),
        Section("FIG11", _fig11_jobs, _fig11_merge),
        Section("FIG12", _fig12_jobs, _fig12_merge, _scenario_train_keys),
        Section("FIG13", _fig13_jobs, _fig13_merge, _scenario_train_keys),
        Section("FIG14", _fig14_jobs, _fig14_merge, _fig14_train_keys),
        Section("TAB2", _tab2_jobs, _tab2_merge, _scenario_train_keys),
        Section("ABLATIONS", _ablations_jobs, _ablations_merge),
        Section("EXTENSIONS", _extensions_jobs, _extensions_merge,
                _extensions_train_keys),
        Section("FAULTS", _faults_jobs, _faults_merge, _faults_train_keys),
        Section("INGEST", _ingest_jobs, _ingest_merge, _ingest_train_keys),
    )
}

SECTION_ORDER: Tuple[str, ...] = (
    "FIG2", "FIG10", "FIG11", "FIG12", "FIG13", "FIG14", "TAB2",
    "ABLATIONS", "EXTENSIONS", "FAULTS", "INGEST",
)


def warm_jobs(
    section_names: Sequence[str], seed: int, profile: ReportProfile
) -> List[Job]:
    """One training job per distinct (scenario, warm-up, duration) triple.

    Running these before the section jobs means each model set is fit
    once, before any section cell asks for it; with an artifact cache
    active, the other pool workers load that fit instead of repeating it.
    """
    keys: List[TrainKey] = []
    for name in section_names:
        for key in SECTIONS[name].train_keys(profile):
            if key not in keys:
                keys.append(key)
    return [
        Job("WARMUP", key, _warm_cell, (key[0], key[1], key[2], seed))
        for key in sorted(keys)
    ]


@dataclass(frozen=True)
class ReportSections:
    """Merged section bodies plus the run's aggregate accounting."""

    bodies: Dict[str, str]
    elapsed_s: Dict[str, float]  # per section, summed over its jobs
    warm_elapsed_s: float
    cache_hits: int
    cache_misses: int


def run_report_sections(
    section_names: Sequence[str],
    seed: int,
    profile: Optional[ReportProfile] = None,
    workers: int = 2,
    cache_root: Optional[str] = None,
) -> ReportSections:
    """Run the named sections' jobs on ``workers`` processes and merge.

    ``workers <= 1`` runs the same job list inline. Jobs that perform
    identical work for two sections (FIG13's policy runs are a subset
    of FIG12's) are executed once and shared. Section elapsed times
    attribute a shared job to every section that uses it.
    """
    unknown = [name for name in section_names if name not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown report sections: {unknown}")
    profile = profile if profile is not None else FULL_PROFILE

    all_jobs: List[Job] = []
    for name in section_names:
        all_jobs.extend(SECTIONS[name].jobs(seed, profile))
    unique_index: Dict[bytes, int] = {}
    unique_jobs: List[Job] = []
    for job in all_jobs:
        fp = _fingerprint(job)
        if fp not in unique_index:
            unique_index[fp] = len(unique_jobs)
            unique_jobs.append(job)

    warm_results, unique_results = _run_waves(
        [warm_jobs(section_names, seed, profile), unique_jobs],
        workers, cache_root,
    )

    by_section: Dict[str, Dict[Any, Any]] = {n: {} for n in section_names}
    elapsed: Dict[str, float] = {n: 0.0 for n in section_names}
    for job in all_jobs:
        result = unique_results[unique_index[_fingerprint(job)]]
        by_section[job.section][job.key] = result.value
        elapsed[job.section] += result.elapsed_s
    bodies = {
        name: SECTIONS[name].merge(by_section[name], seed, profile)
        for name in section_names
    }
    return ReportSections(
        bodies=bodies,
        elapsed_s=elapsed,
        warm_elapsed_s=sum(r.elapsed_s for r in warm_results),
        cache_hits=sum(r.cache_hits for r in warm_results + unique_results),
        cache_misses=sum(r.cache_misses for r in warm_results + unique_results),
    )
