"""Vision pipeline: simulated detector, flow prediction, slicing."""

from repro.vision.detector import Detection, DetectorErrorModel, SimulatedDetector
from repro.vision.flow import (
    FlowNoiseModel,
    FlowPredictor,
    find_new_regions,
    observe,
)
from repro.vision.slicing import pinned_size, slice_tracks
from repro.vision.tracks import Track, TrackStatus

__all__ = [
    "Detection",
    "DetectorErrorModel",
    "SimulatedDetector",
    "FlowPredictor",
    "FlowNoiseModel",
    "find_new_regions",
    "observe",
    "pinned_size",
    "slice_tracks",
    "Track",
    "TrackStatus",
]
