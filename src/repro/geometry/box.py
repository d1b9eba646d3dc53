"""Axis-aligned bounding boxes in pixel coordinates.

Boxes are the currency of the whole system: the simulated detector emits
them, the optical-flow tracker predicts them, the cross-camera association
models map them between views, and the scheduler sizes partial-frame
inspection tasks from them.

A box is stored as ``(x1, y1, x2, y2)`` with ``x1 <= x2`` and ``y1 <= y2``,
following the convention of the paper's detector (YOLO-style corner format).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class BBox:
    """An axis-aligned rectangle ``(x1, y1) .. (x2, y2)`` in pixels.

    Instances are immutable; all mutating operations return new boxes.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"invalid box: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @property
    def long_side(self) -> float:
        """The longer of width/height — the quantity quantized for batching."""
        return max(self.width, self.height)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """The box as ``(x1, y1, x2, y2)``."""
        return (self.x1, self.y1, self.x2, self.y2)

    def as_xywh(self) -> Tuple[float, float, float, float]:
        """Return ``(cx, cy, w, h)`` — the format the regression models use."""
        cx, cy = self.center
        return (cx, cy, self.width, self.height)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_xywh(cls, cx: float, cy: float, w: float, h: float) -> "BBox":
        """Build a box from center + size; negative sizes are clamped to 0."""
        w = max(0.0, w)
        h = max(0.0, h)
        return cls(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)

    @classmethod
    def from_points(cls, points: Iterable[Tuple[float, float]]) -> "BBox":
        """The tightest box containing all ``points``."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build a box from zero points")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return cls(min(xs), min(ys), max(xs), max(ys))

    # ------------------------------------------------------------------
    # Geometry operations
    # ------------------------------------------------------------------
    def intersection(self, other: "BBox") -> float:
        """Area of overlap with ``other`` (0 when disjoint)."""
        iw = min(self.x2, other.x2) - max(self.x1, other.x1)
        ih = min(self.y2, other.y2) - max(self.y1, other.y1)
        if iw <= 0.0 or ih <= 0.0:
            return 0.0
        return iw * ih

    def expand(self, margin: float) -> "BBox":
        """Grow the box by ``margin`` pixels on every side."""
        if margin < 0 and (self.width < -2 * margin or self.height < -2 * margin):
            cx, cy = self.center
            return BBox(cx, cy, cx, cy)
        return BBox(
            self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin
        )

    def scale(self, factor: float) -> "BBox":
        """Scale the box about its center by ``factor`` (must be >= 0)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        cx, cy = self.center
        return BBox.from_xywh(cx, cy, self.width * factor, self.height * factor)

    def translate(self, dx: float, dy: float) -> "BBox":
        """The box shifted by ``(dx, dy)`` pixels."""
        return BBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def clip(self, frame_w: float, frame_h: float) -> "BBox":
        """Clip the box to a ``frame_w x frame_h`` image (may become empty)."""
        if (
            self.x1 >= 0.0
            and self.y1 >= 0.0
            and self.x2 <= frame_w
            and self.y2 <= frame_h
        ):
            # Already in frame: every min/max below would return the
            # original coordinate (Python's min/max keep the first
            # argument on ties, so even signed zeros survive unchanged).
            return self
        return BBox(
            min(max(self.x1, 0.0), frame_w),
            min(max(self.y1, 0.0), frame_h),
            min(max(self.x2, 0.0), frame_w),
            min(max(self.y2, 0.0), frame_h),
        )

    def is_empty(self, eps: float = 1e-9) -> bool:
        """True when either side is (numerically) zero."""
        return self.width <= eps or self.height <= eps


def clamp(v: float, hi: float) -> float:
    """``min(max(v, 0.0), hi)``, one corner of :meth:`BBox.clip`.

    Written out with the builtins' tie rules (the first argument wins),
    so the result is the same float, signed zeros included.
    """
    if 0.0 > v:
        v = 0.0
    if hi < v:
        v = hi
    return v


# ----------------------------------------------------------------------
# Size quantization (Section III-A: target sizes quantized to a set S)
# ----------------------------------------------------------------------
DEFAULT_SIZE_SET: Tuple[int, ...] = (64, 128, 256, 512)
"""The paper's quantized partial-frame sizes (Section IV-A3)."""


def quantize_size(extent: float, size_set: Sequence[int] = DEFAULT_SIZE_SET) -> int:
    """Quantize a region extent to the smallest size in ``size_set`` >= extent.

    Regions larger than the largest size are *downsampled* to it, exactly as
    the paper does for regions above 512 px ("very large objects are easy to
    be detected").
    """
    if not size_set:
        raise ValueError("size_set must be non-empty")
    # Called once per region per frame with the same handful of size
    # sets; memoize the sort and binary-search instead of a linear scan.
    ordered = _ordered_sizes(tuple(size_set))
    idx = bisect_left(ordered, extent)
    return ordered[idx] if idx < len(ordered) else ordered[-1]


@lru_cache(maxsize=None)
def _ordered_sizes(size_set: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sorted(size_set))


def corner_array(boxes: Sequence[BBox]) -> np.ndarray:
    """The boxes' ``(x1, y1, x2, y2)`` corners as an ``(n, 4)`` float64 array."""
    return np.array(
        [(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float
    ).reshape(-1, 4)


def iou_corners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corner arrays ``a`` and ``b`` (last axis ``x1, y1, x2, y2``).

    The leading axes broadcast against each other: ``a[:, None]``
    against ``b[None]`` gives the dense ``(n, m)`` matrix. Every entry is
    bit-identical to the scalar IoU of the two boxes, intersection over
    ``a.area + b.area - inter`` with :meth:`BBox.intersection` (the test
    oracle ``tests/geometry/reference_geometry.py:iou``): the expressions
    mirror it term for term (np.minimum/np.maximum are the same exact
    selections as min/max, and the union grouping matches the scalar
    left-to-right evaluation).
    """
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((iw <= 0.0) | (ih <= 0.0), 0.0, iw * ih)
    union = (
        (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
        - inter
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((inter == 0.0) | (union <= 0.0), 0.0, inter / union)


def scalar_iou_cost_rows(
    corners_a: Sequence[Sequence[float]], corners_b: Sequence[Sequence[float]]
) -> List[List[float]]:
    """``1.0 - IoU`` of corner rows ``(x1, y1, x2, y2)``, in plain Python.

    A scalar mirror of ``1.0 - iou_corners``: same min/max selections,
    same term grouping, same ``1.0 - x`` subtraction, so every entry is
    bit-identical to it.
    """
    rows: List[List[float]] = []
    for ax1, ay1, ax2, ay2 in corners_a:
        area_a = (ax2 - ax1) * (ay2 - ay1)
        row: List[float] = []
        for bx1, by1, bx2, by2 in corners_b:
            iw = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
            ih = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
            if iw <= 0.0 or ih <= 0.0:
                row.append(1.0)
                continue
            inter = iw * ih
            union = area_a + (bx2 - bx1) * (by2 - by1) - inter
            if inter == 0.0 or union <= 0.0:
                row.append(1.0)
            else:
                row.append(1.0 - inter / union)
        rows.append(row)
    return rows


def iou_cost_stack(
    a: np.ndarray, b: np.ndarray, n: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """``1.0 - IoU`` of stacked blocks of corner rows, ``+inf`` outside them.

    ``a`` is ``(blocks, rows, 4)`` and ``b`` ``(blocks, cols, 4)``; block
    ``i`` pairs ``a[i, :n[i]]`` with ``b[i, :m[i]]``. One broadcast
    :func:`iou_corners` call scores every block, each cell bit-identical
    to :func:`scalar_iou_cost_rows` of the same boxes, and every cell
    outside the blocks is ``+inf``, whatever ``a`` and ``b`` hold there.
    """
    cost = 1.0 - iou_corners(a[:, :, None], b[:, None])
    rows = np.arange(a.shape[1]) >= n[:, None]
    cols = np.arange(b.shape[1]) >= m[:, None]
    cost[rows[:, :, None] | cols[:, None, :]] = np.inf
    return cost
