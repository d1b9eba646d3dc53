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
from typing import Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.cameras.camera import Camera
from repro.cameras.projection import camera_boxes
from repro.geometry.box import BBox
from repro.vision.tracks import Track
from repro.world.entities import WorldObject


@dataclass(frozen=True)
class FlowNoiseModel:
    """Noise of flow-based prediction."""

    base_sigma_px: float = 1.5  # per-frame positional noise
    drift_growth: float = 1.6  # noise multiplier per unobserved frame
    min_apparent_speed_px: float = 0.8  # below this, motion is invisible


class FlowPredictor:
    """Moves one camera's tracks between detections."""

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

    def predict(self, tracks: Iterable[Track]) -> None:
        """Advance every track with a velocity by one frame of motion + noise.

        The noise of all moving tracks is one ``standard_normal(2n)``
        draw, two values per track in iteration order. It equals two
        ``normal(0.0, sigma)`` draws per track: numpy computes those as
        ``0.0 + sigma * z`` on the same stream
        (``tests/vision/test_rng_identities.py`` pins it). A track
        without a velocity keeps its box and draws nothing.
        """
        moving = [t for t in tracks if t.velocity is not None]
        if not moving:
            return
        z = self._rng.standard_normal(2 * len(moving)).tolist()
        base = self.noise.base_sigma_px
        growth = self.noise.drift_growth
        for track, zx, zy in zip(moving, z[0::2], z[1::2]):
            unobserved = track.frames_since_update + 1
            track.frames_since_update = unobserved
            # growth**0 is exactly 1.0, so the common case of a track
            # observed last frame skips the pow without changing a bit.
            sigma = base
            if unobserved != 1:
                sigma = sigma * (growth ** (unobserved - 1))
            vx, vy = track.velocity
            dx = vx + (0.0 + sigma * zx)
            dy = vy + (0.0 + sigma * zy)
            box = track.bbox
            track.bbox = BBox(
                box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy
            )


def observe(track: Track, bbox: BBox) -> None:
    """Feed a confirmed detection: the box and the flow's velocity estimate.

    The velocity is the centre displacement from the track's current
    (predicted) box, spread over the frames since the last detection.
    """
    if track.velocity is not None:
        # Centres with BBox.center's exact grouping.
        pbox = track.bbox
        frames = track.frames_since_update + 1
        track.velocity = (
            ((bbox.x1 + bbox.x2) / 2.0 - (pbox.x1 + pbox.x2) / 2.0) / frames,
            ((bbox.y1 + bbox.y2) / 2.0 - (pbox.y1 + pbox.y2) / 2.0) / frames,
        )
    else:
        track.velocity = (0.0, 0.0)
    track.bbox = bbox
    track.frames_since_update = 0


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
    w, h = camera.frame_size
    for obj in objects:
        box = boxes_get(obj.object_id)
        if box is None:
            continue
        cx = (box.x1 + box.x2) / 2.0
        cy = (box.y1 + box.y2) / 2.0
        for px1, py1, px2, py2 in rects:
            if px1 <= cx <= px2 and py1 <= cy <= py2:
                break
        else:
            if _apparent_speed_px(camera, obj, dt) < min_speed:
                continue  # flow can't see near-static targets
            # Flow clusters are coarse: inflate and jitter the region.
            inflate = 1.0 + float(rng.uniform(0.1, 0.4))
            jitter = float(rng.normal(0.0, 2.0))
            region = box.scale(inflate).translate(jitter, jitter)
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
