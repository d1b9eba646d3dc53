"""Simulated object detector (the YOLOv5 stand-in).

The real system runs YOLOv5 on full frames (key frames) and on sliced
partial regions (regular frames). Here the detector consumes ground truth
from the world model through a camera's projection and produces *noisy*
detections:

* localization jitter proportional to box size,
* size-dependent miss probability (small boxes are missed more often),
* occasional false positives on full-frame inspections,
* region queries only find objects whose true box overlaps the region.

Detections carry the ground-truth object id **for evaluation and
supervision only** — scheduling and association logic never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.cameras.camera import Camera
from repro.cameras.projection import camera_boxes
from repro.geometry.box import BBox
from repro.world.entities import ObjectClass, WorldObject

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output box on one camera."""

    bbox: BBox
    confidence: float
    object_class: ObjectClass
    gt_object_id: int  # -1 for false positives; for evaluation only
    camera_id: int


@dataclass(frozen=True)
class DetectorErrorModel:
    """Tunables of the detection noise process."""

    center_jitter_frac: float = 0.03  # std of centre noise, fraction of size
    size_jitter_frac: float = 0.05  # std of width/height noise
    base_miss_prob: float = 0.02
    small_box_pixels: float = 32.0  # boxes below this side length miss more
    small_box_extra_miss: float = 0.25
    false_positive_rate: float = 0.05  # expected FPs per full-frame run
    min_confidence: float = 0.35

    def miss_probability(self, box: BBox) -> float:
        """Per-inspection miss probability for a box of this size."""
        side = min(box.width, box.height)
        p = self.base_miss_prob
        if side < self.small_box_pixels:
            deficit = 1.0 - side / self.small_box_pixels
            p += self.small_box_extra_miss * deficit
        return min(0.95, p)


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
        # Region corners unpacked once; the inner test walks them with
        # the same comparisons and short-circuit order as
        # BBox.contains_point.
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
