"""Experiment harnesses: one module per paper figure/table, plus ablations.

Every report section is registered in :mod:`repro.experiments.parallel`
as a job grid and a merge; :func:`run_all` renders them.
"""

from repro.experiments.ablations import (
    AblationResult,
    OptimalityResult,
    ablate_batch_awareness,
    ablate_coverage_ordering,
    jetson_fleet_profiles,
    measure_optimality_gap,
    random_instance,
    run_ablations,
)
from repro.experiments.assoc_data import PairSplit, collect_and_split, split_dataset
from repro.experiments.extensions import (
    BandwidthStudy,
    EnergyStudy,
    OcclusionStudy,
    SynchronizationStudy,
    bandwidth_study,
    energy_study,
)
from repro.experiments.fault_tolerance import (
    DegradationPoint,
    FailoverPoint,
    FaultToleranceStudy,
)
from repro.experiments.fig2_workload import WorkloadTrace, workload_trace
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
from repro.experiments.fig14_horizon import HorizonRow, horizon_point
from repro.experiments.ingest import IngestPoint, IngestStudy
from repro.experiments.report import format_table
from repro.experiments.runner import run_all
from repro.experiments.table2_overhead import OverheadRow, measure_overheads

__all__ = [
    "WorkloadTrace",
    "workload_trace",
    "ClassificationRow",
    "evaluate_classifiers",
    "RegressionRow",
    "evaluate_regressors",
    "DEFAULT_POLICIES",
    "LATENCY_POLICIES",
    "HorizonRow",
    "horizon_point",
    "OverheadRow",
    "measure_overheads",
    "AblationResult",
    "OptimalityResult",
    "ablate_batch_awareness",
    "ablate_coverage_ordering",
    "measure_optimality_gap",
    "jetson_fleet_profiles",
    "random_instance",
    "run_ablations",
    "PairSplit",
    "collect_and_split",
    "split_dataset",
    "format_table",
    "run_all",
    "OcclusionStudy",
    "BandwidthStudy",
    "EnergyStudy",
    "bandwidth_study",
    "energy_study",
    "SynchronizationStudy",
    "DegradationPoint",
    "FaultToleranceStudy",
    "FailoverPoint",
    "IngestPoint",
    "IngestStudy",
]
