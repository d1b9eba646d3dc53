"""Geometry primitives: boxes, convex polygons, and planar transforms."""

from repro.geometry.box import (
    DEFAULT_SIZE_SET,
    BBox,
    quantize_size,
)
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.transforms import Homography

__all__ = [
    "BBox",
    "ConvexPolygon",
    "Homography",
    "DEFAULT_SIZE_SET",
    "quantize_size",
]
