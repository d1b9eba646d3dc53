"""End-to-end runtime: camera nodes, central scheduler, pipeline, metrics."""

from repro.obs.trace import SpanRecord, Tracer, get_tracer, use_tracer
from repro.runtime.camera_node import (
    CameraNode,
    KeyFrameOutcome,
    RegularFrameOutcome,
    Track,
    TrackStatus,
)
from repro.runtime.metrics import FrameRecord, RunResult, speedup_vs
from repro.runtime.overhead import OverheadModel
from repro.runtime.pipeline import (
    POLICIES,
    Pipeline,
    PipelineConfig,
    TrainedModels,
    run_policy,
    train_models,
)
from repro.runtime.policies import (
    BALBPolicy,
    CentralOnlyPolicy,
    IndependentPolicy,
    RegularFramePolicy,
    StaticPartitioningPolicy,
    TrackView,
)
from repro.runtime.scheduler_node import CentralScheduler, ScheduleDecision
from repro.runtime.synchronization import SkewModel

__all__ = [
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "use_tracer",
    "CameraNode",
    "Track",
    "TrackStatus",
    "KeyFrameOutcome",
    "RegularFrameOutcome",
    "FrameRecord",
    "RunResult",
    "speedup_vs",
    "OverheadModel",
    "Pipeline",
    "PipelineConfig",
    "TrainedModels",
    "train_models",
    "run_policy",
    "POLICIES",
    "RegularFramePolicy",
    "BALBPolicy",
    "CentralOnlyPolicy",
    "IndependentPolicy",
    "StaticPartitioningPolicy",
    "TrackView",
    "CentralScheduler",
    "ScheduleDecision",
    "SkewModel",
]
