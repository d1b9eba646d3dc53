"""The per-object camera node, frozen as the track table's oracle.

This is :class:`repro.runtime.camera_node.CameraNode` as it was before
its per-camera work became flat loops over one track table, together
with the per-object helpers it called: ``SimulatedDetector`` with
``_detect_object`` and ``_jitter_box`` (one ``normal`` draw per scalar),
the per-key ``FlowPredictor``, ``TargetSizeBook``/``build_slices`` and
``find_new_regions``. Its tracks live in three dicts kept in lockstep
(``tracks``, ``FlowPredictor._states``, ``TargetSizeBook._sizes``).
``tests/runtime/test_camera_node_reference.py`` steps it beside the new
node and compares tracks, outcomes and RNG states after every frame.
Data records (``BBox``, ``Detection``, the error and noise models,
``TrackView``) and the shared solvers (``hungarian``, ``iou_corners``,
``scalar_iou_cost_rows``, ``greedy_plan``, ``GPUExecutor``) are
imported, not frozen; ``iou_cost_rows``, which chose between the
batched ``iou_matrix`` and the scalar mirror, is frozen here with it.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cameras.camera import Camera
from repro.cameras.projection import camera_boxes
from repro.devices.gpu import GPUExecutor, greedy_plan
from repro.devices.latency import LatencyModel
from repro.geometry.box import (
    DEFAULT_SIZE_SET,
    BBox,
    corner_array,
    iou_corners,
    quantize_size,
    scalar_iou_cost_rows,
)
from repro.ml.hungarian import hungarian
from repro.net.envelope import ChannelGuard
from repro.obs.trace import get_tracer
from repro.runtime.overhead import OverheadModel
from repro.runtime.policies import RegularFramePolicy, TrackView
from repro.vision.detector import Detection, DetectorErrorModel
from repro.vision.flow import FlowNoiseModel
from repro.world.entities import ObjectClass, WorldObject

_INF = float("inf")


def iou_matrix(
    boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]
) -> np.ndarray:
    """Dense IoU matrix between two box lists (rows: a, cols: b).

    Every entry is bit-identical to ``iou(boxes_a[i], boxes_b[j])`` of
    ``tests/geometry/reference_geometry.py`` (see ``iou_corners``).
    """
    n, m = len(boxes_a), len(boxes_b)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    return iou_corners(
        corner_array(boxes_a)[:, None, :], corner_array(boxes_b)[None, :, :]
    )


def iou_cost_rows(
    boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]
) -> List[List[float]]:
    """``1.0 - IoU`` cost matrix as nested lists (rows: a, cols: b).

    Above 64 cells the batched ``iou_matrix``, below it the scalar
    mirror; both are bit-identical to ``1.0 - iou``.
    """
    n, m = len(boxes_a), len(boxes_b)
    if n * m > 64:
        return (1.0 - iou_matrix(boxes_a, boxes_b)).tolist()
    return scalar_iou_cost_rows(
        [(b.x1, b.y1, b.x2, b.y2) for b in boxes_a],
        [(b.x1, b.y1, b.x2, b.y2) for b in boxes_b],
    )


class SimulatedDetector:
    """Generates detections for full-frame and region-sliced inspections."""

    def __init__(
        self,
        camera: Camera,
        error_model: Optional[DetectorErrorModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.camera = camera
        self.errors = error_model or DetectorErrorModel()
        self._rng = rng or np.random.default_rng(camera.camera_id)

    # ------------------------------------------------------------------
    def detect_full_frame(
        self,
        objects: Sequence[WorldObject],
        miss_multipliers: Optional[dict] = None,
        boxes: Optional[Mapping[int, BBox]] = None,
    ) -> List[Detection]:
        """Full-frame inspection: sees every visible object, with noise.

        ``miss_multipliers`` optionally scales each object's miss
        probability (e.g. from the occlusion model); ``inf`` forces a miss.
        ``boxes`` is the frame's cached projection table (visible object
        id -> true box), built here when not supplied; invisible objects
        draw no noise.
        """
        if boxes is None:
            boxes = camera_boxes(self.camera, objects)
        multipliers_get = (miss_multipliers or {}).get
        detections: List[Detection] = []
        boxes_get = boxes.get
        detect_object = self._detect_object
        for obj in objects:
            true_box = boxes_get(obj.object_id)
            if true_box is None:
                continue
            det = detect_object(
                obj, true_box, multipliers_get(obj.object_id, 1.0)
            )
            if det is not None:
                detections.append(det)
        detections.extend(self._false_positives())
        return detections

    def detect_regions(
        self,
        objects: Sequence[WorldObject],
        regions: Sequence[BBox],
        miss_multipliers: Optional[dict] = None,
        boxes: Optional[Mapping[int, BBox]] = None,
    ) -> List[Detection]:
        """Partial-frame inspection: only objects whose true box centre lies
        in some region are detectable. One object yields at most one
        detection even when regions overlap. ``boxes`` is as in
        :meth:`detect_full_frame`.
        """
        if boxes is None:
            boxes = camera_boxes(self.camera, objects)
        detections: List[Detection] = []
        seen: set[int] = set()
        # Region corners unpacked once; the inner test walks them
        # edge-inclusive (x1 <= x <= x2 and y1 <= y <= y2).
        rects = [(r.x1, r.y1, r.x2, r.y2) for r in regions]
        multipliers_get = (miss_multipliers or {}).get
        boxes_get = boxes.get
        detect_object = self._detect_object
        for obj in objects:
            obj_id = obj.object_id
            if obj_id in seen:
                continue
            true_box = boxes_get(obj_id)
            if true_box is None:
                continue
            cx = (true_box.x1 + true_box.x2) / 2.0
            cy = (true_box.y1 + true_box.y2) / 2.0
            for rx1, ry1, rx2, ry2 in rects:
                if rx1 <= cx <= rx2 and ry1 <= cy <= ry2:
                    break
            else:
                continue
            det = detect_object(obj, true_box, multipliers_get(obj_id, 1.0))
            if det is not None:
                seen.add(obj_id)
                detections.append(det)
        return detections

    # ------------------------------------------------------------------
    def _detect_object(
        self,
        obj: WorldObject,
        true_box: BBox,
        miss_multiplier: float = 1.0,
    ) -> Optional[Detection]:
        # errors.miss_probability inlined: min()/property calls were a
        # visible slice of the per-detection cost. Python min/max keep
        # the first argument on ties, so the conditional forms below
        # select the same values bit-for-bit.
        errors = self.errors
        bw = true_box.x2 - true_box.x1
        bh = true_box.y2 - true_box.y1
        side = bw if bw < bh else bh
        p = errors.base_miss_prob
        small = errors.small_box_pixels
        if side < small:
            p += errors.small_box_extra_miss * (1.0 - side / small)
        if p > 0.95:
            p = 0.95
        miss_prob = p * miss_multiplier
        if miss_prob > 1.0:
            miss_prob = 1.0
        if miss_multiplier == _INF or self._rng.random() < miss_prob:
            return None
        noisy = self._jitter_box(true_box)
        w, h = self.camera.frame_size
        noisy = noisy.clip(float(w), float(h))
        if noisy.is_empty():
            return None
        # Scalar clamp written as min(max(v, lo), hi) — the exact
        # element rule of the np.clip call it replaces, without the
        # array round-trip.
        confidence = float(self._rng.normal(0.85, 0.08))
        lo = self.errors.min_confidence
        if confidence < lo:
            confidence = lo
        if confidence > 0.99:
            confidence = 0.99
        return Detection(
            bbox=noisy,
            confidence=confidence,
            object_class=obj.object_class,
            gt_object_id=obj.object_id,
            camera_id=self.camera.camera_id,
        )

    def _jitter_box(self, box: BBox) -> BBox:
        # Inlined center/size/from_xywh arithmetic with the exact same
        # grouping (the jittered sizes are >= 2, so from_xywh's
        # non-negative clamp was always a no-op).
        x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
        cx = (x1 + x2) / 2.0
        cy = (y1 + y2) / 2.0
        w = x2 - x1
        h = y2 - y1
        rng = self._rng
        errors = self.errors
        ncx = cx + rng.normal(0.0, errors.center_jitter_frac * w)
        ncy = cy + rng.normal(0.0, errors.center_jitter_frac * h)
        sj = errors.size_jitter_frac
        nw = max(2.0, w * (1.0 + rng.normal(0.0, sj)))
        nh = max(2.0, h * (1.0 + rng.normal(0.0, sj)))
        return BBox(
            ncx - nw / 2.0, ncy - nh / 2.0, ncx + nw / 2.0, ncy + nh / 2.0
        )

    def _false_positives(self) -> List[Detection]:
        n = int(self._rng.poisson(self.errors.false_positive_rate))
        out: List[Detection] = []
        w, h = self.camera.frame_size
        for _ in range(n):
            size = float(self._rng.uniform(20, 120))
            cx = float(self._rng.uniform(size, w - size))
            cy = float(self._rng.uniform(size, h - size))
            out.append(
                Detection(
                    bbox=BBox.from_xywh(cx, cy, size, size * 0.7),
                    confidence=float(self._rng.uniform(0.35, 0.6)),
                    object_class=ObjectClass.CAR,
                    gt_object_id=-1,
                    camera_id=self.camera.camera_id,
                )
            )
        return out


@dataclass
class TrackState:
    """Per-object motion state maintained by the predictor."""

    bbox: BBox
    velocity: Tuple[float, float] = (0.0, 0.0)  # px/frame
    frames_since_update: int = 0


class FlowPredictor:
    """Predicts per-object boxes between detections, one instance per camera."""

    def __init__(
        self,
        noise: Optional[FlowNoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if rng is None:
            raise ValueError(
                "FlowPredictor requires an explicit rng seeded from the "
                "run config; every predict() call draws from it"
            )
        self.noise = noise or FlowNoiseModel()
        self._rng = rng
        self._states: Dict[int, TrackState] = {}

    # ------------------------------------------------------------------
    def observe(self, key: int, bbox: BBox) -> None:
        """Feed a confirmed detection for ``key`` (a local track id)."""
        prev = self._states.get(key)
        if prev is not None:
            # Centres inlined with BBox.center's exact grouping.
            pbox = prev.bbox
            pcx = (pbox.x1 + pbox.x2) / 2.0
            pcy = (pbox.y1 + pbox.y2) / 2.0
            ccx = (bbox.x1 + bbox.x2) / 2.0
            ccy = (bbox.y1 + bbox.y2) / 2.0
            frames = prev.frames_since_update + 1
            if frames < 1:
                frames = 1
            velocity = ((ccx - pcx) / frames, (ccy - pcy) / frames)
        else:
            velocity = (0.0, 0.0)
        self._states[key] = TrackState(bbox=bbox, velocity=velocity)

    def predict(self, key: int) -> Optional[BBox]:
        """Advance ``key``'s box by one frame of estimated motion + noise."""
        state = self._states.get(key)
        if state is None:
            return None
        unobserved = state.frames_since_update + 1
        state.frames_since_update = unobserved
        # The common case is a track observed last frame: growth**0 is
        # exactly 1.0 and multiplying by it is exact, so the pow can be
        # skipped without changing a bit.
        sigma = self.noise.base_sigma_px
        if unobserved != 1:
            sigma = sigma * (self.noise.drift_growth ** (unobserved - 1))
        rng = self._rng
        vx, vy = state.velocity
        dx = vx + rng.normal(0.0, sigma)
        dy = vy + rng.normal(0.0, sigma)
        box = state.bbox
        predicted = BBox(
            box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy
        )
        state.bbox = predicted
        return predicted

    def drop(self, key: int) -> None:
        """Forget the motion state of ``key``."""
        self._states.pop(key, None)

    def tracked_keys(self) -> List[int]:
        """Sorted keys currently carrying motion state."""
        return sorted(self._states)

    def staleness(self, key: int) -> int:
        """Frames since ``key`` was last observed (-1 if unknown)."""
        state = self._states.get(key)
        return state.frames_since_update if state else -1


def find_new_regions(
    camera: Camera,
    objects: Sequence[WorldObject],
    predicted_boxes: Sequence[BBox],
    rng: np.random.Generator,
    noise: Optional[FlowNoiseModel] = None,
    dt: float = 0.1,
    boxes: Optional[Mapping[int, BBox]] = None,
) -> List[BBox]:
    """Regions of moving pixels not explained by any predicted box.

    For each visible, sufficiently fast-moving object whose true box centre
    is not covered by a predicted box, emit a loose region around it (the
    pixel-motion cluster). This is how new arrivals get detected at their
    first appearance instead of waiting for the next key frame. ``boxes``
    is the frame's cached projection table, built here when not
    supplied; RNG draws happen per emitted region only, in object order.
    """
    noise = noise or FlowNoiseModel()
    if boxes is None:
        boxes = camera_boxes(camera, objects)
    regions: List[BBox] = []
    # Predicted-box corners unpacked once; the coverage test walks them
    # edge-inclusive (x1 <= x <= x2 and y1 <= y <= y2).
    rects = [(p.x1, p.y1, p.x2, p.y2) for p in predicted_boxes]
    boxes_get = boxes.get
    min_speed = noise.min_apparent_speed_px
    for obj in objects:
        box = boxes_get(obj.object_id)
        if box is None:
            continue
        cx = (box.x1 + box.x2) / 2.0
        cy = (box.y1 + box.y2) / 2.0
        covered = False
        for px1, py1, px2, py2 in rects:
            if px1 <= cx <= px2 and py1 <= cy <= py2:
                covered = True
                break
        if covered:
            continue
        apparent_speed = _apparent_speed_px(camera, obj, dt)
        if apparent_speed < min_speed:
            continue  # flow can't see near-static targets
        # Flow clusters are coarse: inflate and jitter the region.
        inflate = 1.0 + float(rng.uniform(0.1, 0.4))
        jitter = float(rng.normal(0.0, 2.0))
        region = box.scale(inflate).translate(jitter, jitter)
        w, h = camera.frame_size
        region = region.clip(float(w), float(h))
        if not region.is_empty():
            regions.append(region)
    return regions


def _apparent_speed_px(camera: Camera, obj: WorldObject, dt: float) -> float:
    """Pixel-space speed of the object's centre over one frame interval."""
    now = camera.project_point(obj.x, obj.y, obj.height / 2.0)
    vx, vy = obj.velocity
    nxt = camera.project_point(obj.x + vx * dt, obj.y + vy * dt, obj.height / 2.0)
    if now is None or nxt is None:
        return 0.0
    return float(np.hypot(nxt[0] - now[0], nxt[1] - now[1]))


@dataclass(frozen=True)
class Slice:
    """One partial-frame inspection task: a search region + batching key."""

    key: int  # local track id on this camera
    region: BBox
    target_size: int


class TargetSizeBook:
    """Per-horizon registry fixing each object's quantized target size.

    ``assign`` pins a size at the start of a horizon (or on first sight);
    ``lookup`` returns the pinned size; ``reset`` starts a new horizon.
    """

    def __init__(self, size_set: Sequence[int] = DEFAULT_SIZE_SET) -> None:
        if not size_set:
            raise ValueError("size_set must be non-empty")
        self.size_set = tuple(sorted(size_set))
        self._sizes: Dict[int, int] = {}

    def assign(self, key: int, box: BBox, margin: float = 8.0) -> int:
        """Pin (or re-pin) the quantized size for ``key`` from its box."""
        size = quantize_size(box.expand(margin).long_side, self.size_set)
        self._sizes[key] = size
        return size

    def lookup(self, key: int) -> Optional[int]:
        """The pinned size for ``key``, or None if unassigned."""
        return self._sizes.get(key)

    def lookup_or_assign(self, key: int, box: BBox, margin: float = 8.0) -> int:
        """Return the pinned size, assigning it on first sight."""
        existing = self._sizes.get(key)
        if existing is not None:
            return existing
        return self.assign(key, box, margin)

    def drop(self, key: int) -> None:
        """Remove ``key``'s pinned size."""
        self._sizes.pop(key, None)

    def reset(self) -> None:
        """Start a new horizon: clear every pinned size."""
        self._sizes.clear()

    def sizes(self) -> Dict[int, int]:
        """A snapshot copy of all pinned sizes."""
        return dict(self._sizes)


def build_slices(
    predicted: Dict[int, BBox],
    book: TargetSizeBook,
    frame_size: Tuple[int, int],
    margin: float = 8.0,
) -> List[Slice]:
    """Turn predicted boxes into quantized, frame-clipped slices.

    The square region is centred on the predicted box; its side is the
    pinned target size. Regions are shifted (not shrunk) to stay inside the
    frame so the batching key remains exact.
    """
    w, h = frame_size
    slices: List[Slice] = []
    for key in sorted(predicted):
        box = predicted[key]
        size = book.lookup_or_assign(key, box, margin)
        cx, cy = box.center
        half = size / 2.0
        # Shift the centre so the square fits the frame where possible.
        cx = min(max(cx, half), max(half, w - half))
        cy = min(max(cy, half), max(half, h - half))
        region = BBox.from_xywh(cx, cy, float(size), float(size)).clip(
            float(w), float(h)
        )
        if region.is_empty():
            continue
        slices.append(Slice(key=key, region=region, target_size=size))
    return slices


class TrackStatus(enum.Enum):
    ASSIGNED = "assigned"  # this camera inspects the track
    SHADOW = "shadow"  # tracked elsewhere; flow-predicted only


@dataclass
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


class ReferenceCameraNode:
    """The per-object onboard pipeline of one camera."""

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
        # the per-pair ``1.0 - iou`` loop it replaces, and the list
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
