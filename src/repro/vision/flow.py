"""Optical-flow stand-in: location prediction and new-region detection.

The real pipeline runs dense-inverse-search optical flow to (a) predict
where each tracked object's box moved in the new frame and (b) find
clusters of moving pixels that belong to no tracked object ("new regions",
Section II-B). We reproduce both contracts:

* :class:`FlowPredictor` propagates a box by the object's *apparent* pixel
  velocity with noise that grows the longer the object goes unobserved —
  matching flow-based drift between detections.
* :func:`find_new_regions` reports image regions of moving objects not
  covered by any predicted box, with a miss probability for slow movers
  (flow cannot see what barely moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cameras.camera import Camera
from repro.cameras.projection import camera_boxes
from repro.geometry.box import BBox
from repro.world.entities import WorldObject


@dataclass(slots=True)
class TrackState:
    """Per-object motion state maintained by the predictor."""

    bbox: BBox
    velocity: Tuple[float, float] = (0.0, 0.0)  # px/frame
    frames_since_update: int = 0


@dataclass(frozen=True)
class FlowNoiseModel:
    """Noise of flow-based prediction."""

    base_sigma_px: float = 1.5  # per-frame positional noise
    drift_growth: float = 1.6  # noise multiplier per unobserved frame
    min_apparent_speed_px: float = 0.8  # below this, motion is invisible


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
    # with the same comparisons and short-circuit order as
    # BBox.contains_point.
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
