"""A smart camera node: detector + flow tracker + slicer + GPU executor.

One :class:`CameraNode` is the onboard software of one camera. At key
frames it runs a full-frame inspection and reports its tracks to the
central scheduler; at regular frames it flow-predicts its tracks, applies
the active :class:`~repro.runtime.policies.RegularFramePolicy` to decide
what to inspect, slices, batches, "executes" the batches on the simulated
GPU and refreshes its tracks from the resulting detections.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cameras.camera import Camera
from repro.devices.gpu import GPUExecutor, greedy_plan
from repro.devices.latency import LatencyModel
from repro.devices.profiler import DeviceProfile
from repro.geometry.box import BBox, iou_cost_rows, quantize_size
from repro.ml.hungarian import hungarian
from repro.net.envelope import ChannelGuard
from repro.obs.trace import get_tracer
from repro.runtime.overhead import OverheadModel
from repro.runtime.policies import RegularFramePolicy, TrackView
from repro.vision.detector import Detection, DetectorErrorModel, SimulatedDetector
from repro.vision.flow import FlowNoiseModel, FlowPredictor, find_new_regions
from repro.vision.slicing import Slice, TargetSizeBook, build_slices
from repro.world.entities import WorldObject


class TrackStatus(enum.Enum):
    ASSIGNED = "assigned"  # this camera inspects the track
    SHADOW = "shadow"  # tracked elsewhere; flow-predicted only


@dataclass(slots=True)
class NodeTrack:
    """One locally known object on this camera."""

    track_id: int
    bbox: BBox
    status: TrackStatus = TrackStatus.ASSIGNED
    assigned_camera: Optional[int] = None  # for shadows: who tracks it
    misses: int = 0
    last_gt_id: int = -1


@dataclass
class KeyFrameOutcome:
    inference_ms: float
    detections: List[Detection]
    report: List[Tuple[int, BBox, int]]  # (track_id, bbox, gt_id)
    tracking_ms: float = 0.0


@dataclass
class RegularFrameOutcome:
    inference_ms: float
    detections: List[Detection]
    n_slices: int
    n_new_regions: int
    n_takeovers: int
    tracking_ms: float = 0.0
    distributed_ms: float = 0.0
    batching_ms: float = 0.0


class CameraNode:
    """Onboard pipeline for one camera."""

    def __init__(
        self,
        camera: Camera,
        latency_model: LatencyModel,
        profile: DeviceProfile,
        seed: int = 0,
        detector_errors: Optional[DetectorErrorModel] = None,
        flow_noise: Optional[FlowNoiseModel] = None,
        gpu_jitter: float = 0.02,
        iou_match_threshold: float = 0.2,
        max_misses: int = 2,
        overhead_model: Optional[OverheadModel] = None,
        frame_dt: float = 0.1,
    ) -> None:
        self.camera = camera
        self.latency_model = latency_model
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        self.detector = SimulatedDetector(
            camera, detector_errors, np.random.default_rng(seed + 1)
        )
        self.flow = FlowPredictor(flow_noise, np.random.default_rng(seed + 2))
        self.executor = GPUExecutor(
            latency_model, gpu_jitter, np.random.default_rng(seed + 3)
        )
        self.book = TargetSizeBook(latency_model.size_set)
        self.overheads = overhead_model or OverheadModel()
        self.iou_match_threshold = iou_match_threshold
        self.max_misses = max_misses
        self.frame_dt = frame_dt
        self.tracks: Dict[int, NodeTrack] = {}
        self._next_tid = camera.camera_id * 1_000_000
        #: Detector miss-probability multiplier from a ``quality_fade``
        #: fault (1.0 = healthy). Scales every object's miss probability
        #: without changing the detector's RNG draw count, so a factor of
        #: 1.0 is byte-identical to no fade at all.
        self.quality_fade = 1.0
        #: Receiver guard for the assignment downlink: drops corrupted
        #: messages, dedupes duplicated deliveries and fences assignments
        #: from a deposed scheduler epoch (see repro.net.envelope). Pure
        #: state — a clean channel admits everything unchanged.
        self.guard = ChannelGuard()

    # ------------------------------------------------------------------
    # Key frame
    # ------------------------------------------------------------------
    def process_key_frame(
        self,
        objects: Sequence[WorldObject],
        miss_multipliers: Optional[Dict[int, float]] = None,
        boxes: Optional[Dict[int, BBox]] = None,
    ) -> KeyFrameOutcome:
        """Full-frame inspection + authoritative track refresh.

        ``miss_multipliers`` (per ground-truth object id) scale detection
        miss probabilities — the occlusion model's hook. ``boxes`` is the
        frame's cached projection table for this camera, if available.
        """
        tracer = get_tracer()
        inference_ms = self.executor.execute_full_frame()
        with tracer.span("camera.detect"):
            detections = self.detector.detect_full_frame(
                objects,
                self._faded_multipliers(objects, miss_multipliers),
                boxes=boxes,
            )

        with tracer.span("camera.track_refresh"):
            predicted: Dict[int, BBox] = {}
            for tid, track in self.tracks.items():
                box = self.flow.predict(tid)
                predicted[tid] = box if box is not None else track.bbox

            matched, unmatched_dets = self._match_detections(
                predicted, detections
            )
            survivors: Dict[int, NodeTrack] = {}
            for tid, det in matched:
                track = self.tracks[tid]
                track.bbox = det.bbox
                track.last_gt_id = det.gt_object_id
                track.misses = 0
                survivors[tid] = track
                self.flow.observe(tid, det.bbox)
            # Full-frame inspection is authoritative: unseen tracks are gone.
            for tid in list(self.tracks):
                if tid not in survivors:
                    self.flow.drop(tid)
            for det in unmatched_dets:
                track = self._new_track(det)
                survivors[track.track_id] = track
            self.tracks = survivors
            self.book.reset()

        report = [
            (tid, t.bbox, t.last_gt_id) for tid, t in sorted(self.tracks.items())
        ]
        tracking_ms = self.overheads.tracking_ms(len(self.tracks))
        return KeyFrameOutcome(
            inference_ms=inference_ms,
            detections=detections,
            report=report,
            tracking_ms=tracking_ms,
        )

    def apply_schedule(
        self,
        assigned_track_ids: Sequence[int],
        shadow_assignments: Dict[int, int],
    ) -> None:
        """Install the central-stage decision for the new horizon.

        ``assigned_track_ids``: local tracks this camera must inspect.
        ``shadow_assignments``: local track id -> camera id tracking it.
        Tracks mentioned in neither (e.g. association false positives that
        the central stage merged away) stay assigned — losing them would
        silently drop coverage.
        """
        assigned = set(assigned_track_ids)
        for tid, track in self.tracks.items():
            if tid in assigned:
                track.status = TrackStatus.ASSIGNED
                track.assigned_camera = self.camera.camera_id
            elif tid in shadow_assignments:
                track.status = TrackStatus.SHADOW
                track.assigned_camera = shadow_assignments[tid]
            else:
                track.status = TrackStatus.ASSIGNED
                track.assigned_camera = self.camera.camera_id

    # ------------------------------------------------------------------
    # Regular frame
    # ------------------------------------------------------------------
    def process_regular_frame(
        self,
        objects: Sequence[WorldObject],
        policy: RegularFramePolicy,
        miss_multipliers: Optional[Dict[int, float]] = None,
        boxes: Optional[Dict[int, BBox]] = None,
    ) -> RegularFrameOutcome:
        """One regular-frame iteration under ``policy``."""
        tracer = get_tracer()
        # 1. Flow-predict every known track (assigned and shadow alike;
        #    optical flow runs on the whole frame anyway).
        with tracer.span("camera.flow_predict"):
            predicted: Dict[int, BBox] = {}
            flow_predict = self.flow.predict
            frame_w, frame_h = self.camera.frame_size
            for tid, track in list(self.tracks.items()):
                box = flow_predict(tid)
                if box is None:
                    box = track.bbox
                track.bbox = box
                # A track whose centre left the frame is dropped (same
                # grouping as BBox.center).
                cx = (box.x1 + box.x2) / 2.0
                cy = (box.y1 + box.y2) / 2.0
                if not (0.0 <= cx <= frame_w and 0.0 <= cy <= frame_h):
                    self._drop_track(tid)
                    continue
                predicted[tid] = box

        # 2. Policy decides the inspection set; shadow tracks that the
        #    policy claims are takeovers.
        with tracer.span("camera.policy_select"):
            inspect: List[int] = []
            n_takeovers = 0
            tracks = self.tracks
            assigned_status = TrackStatus.ASSIGNED
            shadow_status = TrackStatus.SHADOW
            own_camera_id = self.camera.camera_id
            inspect_track = policy.inspect_track
            for tid in sorted(predicted):
                track = tracks[tid]
                view = TrackView(
                    track_id=tid,
                    bbox=track.bbox,
                    is_assigned=track.status is assigned_status,
                    assigned_camera=track.assigned_camera,
                )
                if inspect_track(view):
                    if track.status is shadow_status:
                        track.status = assigned_status
                        track.assigned_camera = own_camera_id
                        n_takeovers += 1
                    inspect.append(tid)

        # 3. New-region detection (flow finds unexplained moving pixels).
        with tracer.span("camera.new_regions"):
            explained = list(predicted.values())
            regions = find_new_regions(
                self.camera,
                objects,
                explained,
                self._rng,
                noise=self.flow.noise,
                dt=self.frame_dt,
                boxes=boxes,
            )
            new_slices: List[Slice] = []
            for region in regions:
                if not policy.allow_new_region(region):
                    continue
                track = NodeTrack(track_id=self._alloc_tid(), bbox=region)
                self.tracks[track.track_id] = track
                size = quantize_size(region.long_side, self.book.size_set)
                self.book.assign(track.track_id, region)
                new_slices.append(
                    Slice(key=track.track_id, region=region, target_size=size)
                )

        # 4. Slice + batch + execute.
        with tracer.span("camera.slice") as slice_span:
            slices = build_slices(
                {tid: predicted[tid] for tid in inspect},
                self.book,
                self.camera.frame_size,
            )
            slices.extend(new_slices)
            counts: Dict[int, int] = {}
            for s in slices:
                counts[s.target_size] = counts.get(s.target_size, 0) + 1
            plan = greedy_plan(counts, self.latency_model)
            slice_span.set_tag("n_slices", len(slices))
        inference_ms = self.executor.execute(plan).total_ms if plan else 0.0

        # 5. Detect within the slices and refresh tracks.
        with tracer.span("camera.detect"):
            detections = self.detector.detect_regions(
                objects,
                [s.region for s in slices],
                self._faded_multipliers(objects, miss_multipliers),
                boxes=boxes,
            )
        with tracer.span("camera.track_refresh"):
            inspected_boxes = {s.key: s.region for s in slices}
            for tid in inspect:
                inspected_boxes[tid] = predicted[tid]
            matched, unmatched_dets = self._match_detections(
                inspected_boxes, detections
            )
            matched_tids = set()
            for tid, det in matched:
                track = self.tracks.get(tid)
                if track is None:
                    continue
                track.bbox = det.bbox
                track.last_gt_id = det.gt_object_id
                track.misses = 0
                matched_tids.add(tid)
                self.flow.observe(tid, det.bbox)
            # Inspected tracks with no detection accumulate misses.
            for s in slices:
                tid = s.key
                if tid in matched_tids or tid not in self.tracks:
                    continue
                track = self.tracks[tid]
                track.misses += 1
                if track.misses > self.max_misses:
                    self._drop_track(tid)

        total_mpx = sum(b.size * b.size * b.count for b in plan) / 1e6
        return RegularFrameOutcome(
            inference_ms=inference_ms,
            detections=detections,
            n_slices=len(slices),
            n_new_regions=len(new_slices),
            n_takeovers=n_takeovers,
            tracking_ms=self.overheads.tracking_ms(len(self.tracks)),
            distributed_ms=self.overheads.distributed_ms(len(predicted)),
            batching_ms=self.overheads.batching_ms(
                sum(counts.values()), len(plan), total_mpx
            ),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def set_quality_fade(self, factor: float) -> None:
        """Install this frame's ``quality_fade`` miss multiplier."""
        if factor < 1.0:
            raise ValueError("quality fade factor must be >= 1")
        self.quality_fade = factor

    def _faded_multipliers(
        self,
        objects: Sequence[WorldObject],
        miss_multipliers: Optional[Dict[int, float]],
    ) -> Optional[Dict[int, float]]:
        """Fold the quality-fade factor into the miss multipliers."""
        if self.quality_fade == 1.0:
            return miss_multipliers
        base = miss_multipliers or {}
        return {
            obj.object_id: self.quality_fade * base.get(obj.object_id, 1.0)
            for obj in objects
        }

    def _match_detections(
        self,
        reference_boxes: Dict[int, BBox],
        detections: Sequence[Detection],
    ) -> Tuple[List[Tuple[int, Detection]], List[Detection]]:
        """Hungarian IoU matching of detections onto reference boxes."""
        if not reference_boxes or not detections:
            return [], list(detections)
        tids = sorted(reference_boxes)
        # Cost matrix as nested lists: iou_cost_rows is bit-identical to
        # the per-pair ``1.0 - BBox.iou`` loop it replaces, and the list
        # form feeds hungarian without an ndarray round-trip.
        cost = iou_cost_rows(
            [reference_boxes[tid] for tid in tids],
            [det.bbox for det in detections],
        )
        matched: List[Tuple[int, Detection]] = []
        used = set()
        for r, c in hungarian(cost):
            if cost[r][c] <= 1.0 - self.iou_match_threshold:
                matched.append((tids[r], detections[c]))
                used.add(c)
        unmatched = [d for i, d in enumerate(detections) if i not in used]
        return matched, unmatched

    def _new_track(self, det: Detection) -> NodeTrack:
        track = NodeTrack(
            track_id=self._alloc_tid(),
            bbox=det.bbox,
            last_gt_id=det.gt_object_id,
        )
        self.tracks[track.track_id] = track
        self.flow.observe(track.track_id, det.bbox)
        return track

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _drop_track(self, tid: int) -> None:
        self.tracks.pop(tid, None)
        self.flow.drop(tid)
        self.book.drop(tid)
