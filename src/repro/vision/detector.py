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
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cameras.camera import Camera
from repro.cameras.projection import camera_boxes
from repro.geometry.box import BBox, clamp
from repro.world.entities import ObjectClass, WorldObject

_INF = float("inf")

#: A region's ``(x1, y1, x2, y2)`` corners.
Corners = Tuple[float, float, float, float]


class Detection(NamedTuple):
    """One detector output box on one camera."""

    bbox: BBox
    confidence: float
    object_class: ObjectClass
    gt_object_id: int  # -1 for false positives; for evaluation only
    camera_id: int


@dataclass(frozen=True)
class DetectorErrorModel:
    """Tunables of the detection noise process.

    An inspected object of box side ``side = min(w, h)`` is missed with
    probability ``min(0.95, base_miss_prob + small_box_extra_miss *
    (1 - side / small_box_pixels))`` (the second term only below
    ``small_box_pixels``), times the caller's miss multiplier and capped
    at 1.
    """

    center_jitter_frac: float = 0.03  # std of centre noise, fraction of size
    size_jitter_frac: float = 0.05  # std of width/height noise
    base_miss_prob: float = 0.02
    small_box_pixels: float = 32.0  # boxes below this side length miss more
    small_box_extra_miss: float = 0.25
    false_positive_rate: float = 0.05  # expected FPs per full-frame run
    min_confidence: float = 0.35


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
        miss_multipliers: Optional[Mapping[int, float]] = None,
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
        detections = self._detect(objects, boxes, miss_multipliers, None)
        detections.extend(self._false_positives())
        return detections

    def detect_regions(
        self,
        objects: Sequence[WorldObject],
        regions: Sequence[Corners],
        miss_multipliers: Optional[Mapping[int, float]] = None,
        boxes: Optional[Mapping[int, BBox]] = None,
    ) -> List[Detection]:
        """Partial-frame inspection: only objects whose true box centre lies
        in some region are detectable, once each however many regions
        hold it. ``regions`` are ``(x1, y1, x2, y2)`` corner tuples (the
        slices' search regions); ``boxes`` is as in
        :meth:`detect_full_frame`.
        """
        if boxes is None:
            boxes = camera_boxes(self.camera, objects)
        return self._detect(objects, boxes, miss_multipliers, regions)

    # ------------------------------------------------------------------
    def _detect(
        self,
        objects: Sequence[WorldObject],
        boxes: Mapping[int, BBox],
        miss_multipliers: Optional[Mapping[int, float]],
        rects: Optional[Sequence[Corners]],
    ) -> List[Detection]:
        """The one per-object detection loop of both inspection kinds.

        Each visible object (in ``rects`` mode: whose true box centre lies
        in a rect, edges included) draws, in object order: nothing when
        its multiplier is ``inf``; else ``random()`` for the miss test;
        if detected, ``standard_normal(4)`` for the
        centre and size jitter, then, unless the jittered box clips to
        nothing, one standard normal for the confidence. So an object
        draws 0, 1, 5 or 6 values, and the count depends on earlier
        draws, which is why this loop runs per object. Each value is
        ``loc + scale * z``, which is what ``normal(loc, scale)`` draws
        (``tests/vision/test_rng_identities.py`` pins that), and the
        geometry is ``BBox.center``, ``BBox.from_xywh`` and ``BBox.clip``
        written out with the same groupings and the builtins' ``min``/
        ``max`` tie rules, so every box and confidence is bit-identical
        to those operations.
        """
        errors = self.errors
        base_miss = errors.base_miss_prob
        small = errors.small_box_pixels
        extra_miss = errors.small_box_extra_miss
        cj = errors.center_jitter_frac
        sj = errors.size_jitter_frac
        lo = errors.min_confidence
        w, h = self.camera.frame_size
        fw = float(w)
        fh = float(h)
        camera_id = self.camera.camera_id
        rng = self._rng
        random = rng.random
        standard_normal = rng.standard_normal
        multipliers_get = (miss_multipliers or {}).get
        boxes_get = boxes.get
        detections: List[Detection] = []
        for obj in objects:
            oid = obj.object_id
            box = boxes_get(oid)
            if box is None:
                continue
            x1 = box.x1
            y1 = box.y1
            x2 = box.x2
            y2 = box.y2
            cx = (x1 + x2) / 2.0
            cy = (y1 + y2) / 2.0
            if rects is not None:
                for rx1, ry1, rx2, ry2 in rects:
                    if rx1 <= cx <= rx2 and ry1 <= cy <= ry2:
                        break
                else:
                    continue
            bw = x2 - x1
            bh = y2 - y1
            side = bw if bw < bh else bh
            p = base_miss
            if side < small:
                p += extra_miss * (1.0 - side / small)
            if p > 0.95:
                p = 0.95
            multiplier = multipliers_get(oid, 1.0)
            miss_prob = p * multiplier
            if miss_prob > 1.0:
                miss_prob = 1.0
            if multiplier == _INF or random() < miss_prob:
                continue
            z0, z1, z2, z3 = standard_normal(4).tolist()
            ncx = cx + (0.0 + (cj * bw) * z0)
            ncy = cy + (0.0 + (cj * bh) * z1)
            nw = bw * (1.0 + (0.0 + sj * z2))
            nh = bh * (1.0 + (0.0 + sj * z3))
            if not nw > 2.0:
                nw = 2.0
            if not nh > 2.0:
                nh = 2.0
            nx1 = ncx - nw / 2.0
            ny1 = ncy - nh / 2.0
            nx2 = ncx + nw / 2.0
            ny2 = ncy + nh / 2.0
            if not (nx1 >= 0.0 and ny1 >= 0.0 and nx2 <= fw and ny2 <= fh):
                nx1 = clamp(nx1, fw)
                ny1 = clamp(ny1, fh)
                nx2 = clamp(nx2, fw)
                ny2 = clamp(ny2, fh)
            if nx2 - nx1 <= 1e-9 or ny2 - ny1 <= 1e-9:
                continue
            confidence = 0.85 + 0.08 * standard_normal()
            if confidence < lo:
                confidence = lo
            if confidence > 0.99:
                confidence = 0.99
            detections.append(
                Detection(
                    BBox(nx1, ny1, nx2, ny2),
                    confidence,
                    obj.object_class,
                    oid,
                    camera_id,
                )
            )
        return detections

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
