"""Vision pipeline: simulated detector, flow prediction, slicing."""

from repro.vision.detector import Detection, DetectorErrorModel, SimulatedDetector
from repro.vision.flow import (
    FlowNoiseModel,
    FlowPredictor,
    TrackState,
    find_new_regions,
)
from repro.vision.slicing import (
    Slice,
    TargetSizeBook,
    build_slices,
    slice_counts_by_size,
)

__all__ = [
    "Detection",
    "DetectorErrorModel",
    "SimulatedDetector",
    "FlowPredictor",
    "FlowNoiseModel",
    "TrackState",
    "find_new_regions",
    "Slice",
    "TargetSizeBook",
    "build_slices",
    "slice_counts_by_size",
]
