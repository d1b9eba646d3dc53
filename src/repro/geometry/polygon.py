"""Convex polygons on the ground plane.

Camera fields of view are modelled as convex polygons in world (metre)
coordinates. The multi-camera rig uses polygon intersection to compute view
overlaps, and the distributed BALB stage rasterizes polygons into cell
masks.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import List, Sequence, Tuple

Point = Tuple[float, float]


@dataclass(frozen=True)
class ConvexPolygon:
    """A convex polygon with counter-clockwise vertices.

    Vertices are normalized to counter-clockwise order at construction so
    that clipping and containment work regardless of the input winding.
    """

    vertices: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if _signed_area(self.vertices) < 0:
            object.__setattr__(self, "vertices", tuple(reversed(self.vertices)))

    # ------------------------------------------------------------------
    @property
    def area(self) -> float:
        return abs(_signed_area(self.vertices))

    def intersect(self, other: "ConvexPolygon") -> "ConvexPolygon | None":
        """Sutherland–Hodgman clip of ``self`` against ``other``.

        Returns ``None`` when the intersection is empty or degenerate.
        """
        output: List[Point] = list(self.vertices)
        clip = other.vertices
        n = len(clip)
        for i in range(n):
            if not output:
                return None
            cp1 = clip[i]
            cp2 = clip[(i + 1) % n]
            input_pts = output
            output = []
            for j, cur in enumerate(input_pts):
                prev = input_pts[j - 1]
                cur_in = _inside_edge(cur, cp1, cp2)
                prev_in = _inside_edge(prev, cp1, cp2)
                if cur_in:
                    if not prev_in:
                        inter = _edge_intersection(prev, cur, cp1, cp2)
                        if inter is not None:
                            output.append(inter)
                    output.append(cur)
                elif prev_in:
                    inter = _edge_intersection(prev, cur, cp1, cp2)
                    if inter is not None:
                        output.append(inter)
        cleaned = _dedupe(output)
        if len(cleaned) < 3:
            return None
        poly = ConvexPolygon(tuple(cleaned))
        if poly.area < 1e-12:
            return None
        return poly

    def overlap_area(self, other: "ConvexPolygon") -> float:
        """Area of the intersection with ``other`` (0 when disjoint)."""
        inter = self.intersect(other)
        return inter.area if inter is not None else 0.0

    # ------------------------------------------------------------------

    @classmethod
    def sector(
        cls,
        apex: Point,
        heading_rad: float,
        half_angle_rad: float,
        radius: float,
        arc_segments: int = 8,
    ) -> "ConvexPolygon":
        """A camera-style view cone: apex + circular arc approximated by a fan.

        ``half_angle_rad`` must stay below pi/2 for the fan to be convex.
        """
        if not 0 < half_angle_rad < math.pi / 2:
            raise ValueError("half_angle_rad must be in (0, pi/2) for convexity")
        if radius <= 0:
            raise ValueError("radius must be positive")
        pts: List[Point] = [apex]
        for k in range(arc_segments + 1):
            a = heading_rad - half_angle_rad + (2 * half_angle_rad) * k / arc_segments
            pts.append((apex[0] + radius * math.cos(a), apex[1] + radius * math.sin(a)))
        return cls(tuple(pts))


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _signed_area(verts: Sequence[Point]) -> float:
    total = 0.0
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def _inside_edge(p: Point, a: Point, b: Point) -> bool:
    """True when p is on the left of (or on) the directed edge a->b (CCW)."""
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= -1e-12


def _edge_intersection(p1: Point, p2: Point, a: Point, b: Point) -> Point | None:
    """Intersection of segment p1-p2 with the infinite line through a-b."""
    dx1 = p2[0] - p1[0]
    dy1 = p2[1] - p1[1]
    dx2 = b[0] - a[0]
    dy2 = b[1] - a[1]
    denom = dx1 * dy2 - dy1 * dx2
    if abs(denom) < 1e-15:
        return None
    t = ((a[0] - p1[0]) * dy2 - (a[1] - p1[1]) * dx2) / denom
    return (p1[0] + t * dx1, p1[1] + t * dy1)


def _dedupe(pts: Sequence[Point], eps: float = 1e-9) -> List[Point]:
    out: List[Point] = []
    for p in pts:
        if not out or (abs(p[0] - out[-1][0]) > eps or abs(p[1] - out[-1][1]) > eps):
            out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= eps and abs(out[0][1] - out[-1][1]) <= eps:
        out.pop()
    return out
