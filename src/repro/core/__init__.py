"""Core contribution: the MVS problem and the BALB scheduling algorithm."""

from repro.core.balb import BALBResult, balb_central, order_objects
from repro.core.bandwidth import (
    UploadPlan,
    all_cameras_upload_mbps,
    frame_upload_mbps,
    min_view_cover,
    upload_plan_for_instance,
)
from repro.core.baselines import (
    independent_latencies,
)
from repro.core.distributed import DistributedPolicy
from repro.core.energy import (
    DEFAULT_ENERGY_MODELS,
    EnergyModel,
    assignment_energy_mj,
    energy_aware_assignment,
    energy_models_for,
)
from repro.core.hardness import bins_fit, mvs_from_bin_packing
from repro.core.masks import (
    CameraMask,
    build_camera_masks,
    capacity_owner,
    priority_owner,
)
from repro.core.optimal import optimal_assignment
from repro.core.problem import (
    Assignment,
    MVSInstance,
    SchedObject,
    camera_latency,
    camera_size_counts,
    is_feasible,
    system_latency,
)
from repro.core.quality import (
    QualityResult,
    quality_aware_central,
)
from repro.core.redundancy import (
    MultiAssignment,
    RedundantResult,
    balb_redundant,
)

__all__ = [
    "MVSInstance",
    "SchedObject",
    "Assignment",
    "is_feasible",
    "camera_latency",
    "camera_size_counts",
    "system_latency",
    "BALBResult",
    "balb_central",
    "order_objects",
    "DistributedPolicy",
    "CameraMask",
    "build_camera_masks",
    "priority_owner",
    "capacity_owner",
    "independent_latencies",
    "optimal_assignment",
    "mvs_from_bin_packing",
    "bins_fit",
    "UploadPlan",
    "min_view_cover",
    "upload_plan_for_instance",
    "frame_upload_mbps",
    "all_cameras_upload_mbps",
    "EnergyModel",
    "DEFAULT_ENERGY_MODELS",
    "energy_models_for",
    "assignment_energy_mj",
    "energy_aware_assignment",
    "QualityResult",
    "quality_aware_central",
    "MultiAssignment",
    "RedundantResult",
    "balb_redundant",
]
