"""Scalar geometry oracles the tests check production against.

:func:`iou` is the per-pair IoU that ``iou_corners``,
``scalar_iou_cost_rows`` and ``iou_cost_blocks`` in
:mod:`repro.geometry.box` mirror term for term, so every batched entry
must equal it exactly. :func:`polygon_contains` is the point-in-polygon
test the view-cone and winding tests read a
:class:`~repro.geometry.polygon.ConvexPolygon` through.
"""

from __future__ import annotations

from repro.geometry.box import BBox
from repro.geometry.polygon import ConvexPolygon


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes (0 for disjoint or empty)."""
    inter = a.intersection(b)
    if inter == 0.0:
        return 0.0
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def polygon_contains(
    poly: ConvexPolygon, x: float, y: float, eps: float = 1e-9
) -> bool:
    """True when ``(x, y)`` is inside ``poly`` or on its boundary."""
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < -eps:
            return False
    return True
