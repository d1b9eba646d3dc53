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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cameras.camera import Camera
from repro.devices.gpu import GPUExecutor, greedy_plan
from repro.devices.latency import LatencyModel
from repro.geometry.box import BBox, quantize_size, scalar_iou_cost_rows
from repro.ml.hungarian import hungarian
from repro.net.envelope import ChannelGuard
from repro.obs.trace import get_tracer
from repro.runtime.overhead import OverheadModel
from repro.runtime.policies import RegularFramePolicy, TrackView
from repro.vision.detector import Detection, DetectorErrorModel, SimulatedDetector
from repro.vision.flow import FlowNoiseModel, FlowPredictor, find_new_regions, observe
from repro.vision.slicing import Slice, pinned_size, slice_tracks
from repro.vision.tracks import Track, TrackStatus
from repro.world.entities import WorldObject

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
    """Onboard pipeline for one camera.

    ``tracks`` is the camera's track table, ``{track_id: Track}`` in
    ascending id order (see :mod:`repro.vision.tracks`).
    """

    def __init__(
        self,
        camera: Camera,
        latency_model: LatencyModel,
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
        self._rng = np.random.default_rng(seed)
        self.detector = SimulatedDetector(
            camera, detector_errors, np.random.default_rng(seed + 1)
        )
        self.flow = FlowPredictor(flow_noise, np.random.default_rng(seed + 2))
        self.executor = GPUExecutor(
            latency_model, gpu_jitter, np.random.default_rng(seed + 3)
        )
        self.overheads = overhead_model or OverheadModel()
        self.iou_match_threshold = iou_match_threshold
        self.max_misses = max_misses
        self.frame_dt = frame_dt
        self.tracks: Dict[int, Track] = {}
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
            previous = list(self.tracks.values())
            self.flow.predict(previous)
            matched, unmatched_dets = self._match_detections(
                previous, detections
            )
            # Full-frame inspection is authoritative: unseen tracks are
            # gone, and a new horizon pins new slice sizes.
            survivors: Dict[int, Track] = {}
            for track, det in matched:
                observe(track, det.bbox)
                track.last_gt_id = det.gt_object_id
                track.misses = 0
                track.size = None
                survivors[track.track_id] = track
            for det in unmatched_dets:
                track = Track(self._alloc_tid(), det.bbox, det.gt_object_id)
                observe(track, det.bbox)
                survivors[track.track_id] = track
            self.tracks = survivors

        report = [
            (t.track_id, t.bbox, t.last_gt_id) for t in survivors.values()
        ]
        tracking_ms = self.overheads.tracking_ms(len(survivors))
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
        own_camera_id = self.camera.camera_id
        for tid, track in self.tracks.items():
            if tid not in assigned and tid in shadow_assignments:
                track.status = TrackStatus.SHADOW
                track.assigned_camera = shadow_assignments[tid]
            else:
                track.status = TrackStatus.ASSIGNED
                track.assigned_camera = own_camera_id

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
        tracks = self.tracks
        # 1. Flow-predict every known track (assigned and shadow alike;
        #    optical flow runs on the whole frame anyway), and drop the
        #    tracks whose centre left the frame (BBox.center's grouping).
        with tracer.span("camera.flow_predict"):
            self.flow.predict(tracks.values())
            frame_w, frame_h = self.camera.frame_size
            predicted: List[Track] = []
            for track in list(tracks.values()):
                box = track.bbox
                cx = (box.x1 + box.x2) / 2.0
                cy = (box.y1 + box.y2) / 2.0
                if 0.0 <= cx <= frame_w and 0.0 <= cy <= frame_h:
                    predicted.append(track)
                else:
                    del tracks[track.track_id]

        # 2. Policy decides the inspection set; shadow tracks that the
        #    policy claims are takeovers.
        with tracer.span("camera.policy_select"):
            inspect: List[Track] = []
            n_takeovers = 0
            assigned_status = TrackStatus.ASSIGNED
            own_camera_id = self.camera.camera_id
            inspect_track = policy.inspect_track
            for track in predicted:
                is_assigned = track.status is assigned_status
                view = TrackView(
                    track.track_id,
                    track.bbox,
                    is_assigned,
                    track.assigned_camera,
                )
                if inspect_track(view):
                    if not is_assigned:
                        track.status = assigned_status
                        track.assigned_camera = own_camera_id
                        n_takeovers += 1
                    inspect.append(track)

        # 3. New-region detection (flow finds unexplained moving pixels).
        with tracer.span("camera.new_regions"):
            regions = find_new_regions(
                self.camera,
                objects,
                [t.bbox for t in predicted],
                self._rng,
                noise=self.flow.noise,
                dt=self.frame_dt,
                boxes=boxes,
            )
            size_set = self.latency_model.size_set
            new_slices: List[Slice] = []
            for region in regions:
                if not policy.allow_new_region(region):
                    continue
                track = Track(
                    self._alloc_tid(),
                    region,
                    size=pinned_size(region, size_set),
                )
                tracks[track.track_id] = track
                new_slices.append(
                    (
                        track,
                        region.as_tuple(),
                        quantize_size(region.long_side, size_set),
                    )
                )

        # 4. Slice + batch + execute.
        with tracer.span("camera.slice") as slice_span:
            slices = slice_tracks(inspect, size_set, self.camera.frame_size)
            slices.extend(new_slices)
            counts: Dict[int, int] = {}
            for _, _, size in slices:
                counts[size] = counts.get(size, 0) + 1
            plan = greedy_plan(counts, self.latency_model)
            slice_span.set_tag("n_slices", len(slices))
        inference_ms = self.executor.execute(plan).total_ms if plan else 0.0

        # 5. Detect within the slices and refresh tracks.
        with tracer.span("camera.detect"):
            detections = self.detector.detect_regions(
                objects,
                [corners for _, corners, _ in slices],
                self._faded_multipliers(objects, miss_multipliers),
                boxes=boxes,
            )
        with tracer.span("camera.track_refresh"):
            # Inspected tracks are matched at their predicted boxes, new
            # ones at their regions (both are the track's box); new ids
            # are the largest, so the list is in id order.
            matched, _ = self._match_detections(
                inspect + [track for track, _, _ in new_slices], detections
            )
            matched_ids = set()
            for track, det in matched:
                observe(track, det.bbox)
                track.last_gt_id = det.gt_object_id
                track.misses = 0
                matched_ids.add(track.track_id)
            # Inspected tracks with no detection accumulate misses.
            max_misses = self.max_misses
            for track, _, _ in slices:
                if track.track_id in matched_ids:
                    continue
                track.misses += 1
                if track.misses > max_misses:
                    del tracks[track.track_id]

        total_mpx = sum(b.size * b.size * b.count for b in plan) / 1e6
        return RegularFrameOutcome(
            inference_ms=inference_ms,
            detections=detections,
            n_slices=len(slices),
            n_new_regions=len(new_slices),
            n_takeovers=n_takeovers,
            tracking_ms=self.overheads.tracking_ms(len(tracks)),
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
        references: List[Track],
        detections: Sequence[Detection],
    ) -> Tuple[List[Tuple[Track, Detection]], List[Detection]]:
        """Hungarian IoU matching of detections onto the tracks' boxes.

        ``references`` are in id order, which fixes the cost rows.
        """
        if not references or not detections:
            return [], list(detections)
        # Scalar IoU costs: a node matches tens of boxes, where numpy's
        # per-call overhead costs more than the cells.
        cost = scalar_iou_cost_rows(
            [t.bbox.as_tuple() for t in references],
            [d.bbox.as_tuple() for d in detections],
        )
        limit = 1.0 - self.iou_match_threshold
        matched: List[Tuple[Track, Detection]] = []
        used = set()
        for r, c in hungarian(cost):
            if cost[r][c] <= limit:
                matched.append((references[r], detections[c]))
                used.add(c)
        unmatched = [d for i, d in enumerate(detections) if i not in used]
        return matched, unmatched

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid
