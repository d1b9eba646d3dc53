"""Unit tests for convex polygons and clipping."""

import math

import pytest

from repro.geometry.polygon import ConvexPolygon
from tests.geometry.reference_geometry import polygon_contains


def square(x1=0.0, y1=0.0, x2=10.0, y2=10.0):
    return ConvexPolygon(((x1, y1), (x2, y1), (x2, y2), (x1, y2)))


class TestConstruction:
    def test_area_of_rectangle(self):
        assert square().area == pytest.approx(100.0)

    def test_winding_normalized(self):
        cw = ConvexPolygon(((0, 0), (0, 10), (10, 10), (10, 0)))
        ccw = ConvexPolygon(((0, 0), (10, 0), (10, 10), (0, 10)))
        assert cw.area == pytest.approx(ccw.area)
        assert polygon_contains(cw, 5, 5) and polygon_contains(ccw, 5, 5)

    def test_too_few_vertices_raises(self):
        with pytest.raises(ValueError):
            ConvexPolygon(((0, 0), (1, 1)))


class TestContains:
    def test_interior_and_boundary(self):
        poly = square()
        assert polygon_contains(poly, 5, 5)
        assert polygon_contains(poly, 0, 0)
        assert polygon_contains(poly, 10, 5)

    def test_exterior(self):
        poly = square()
        assert not polygon_contains(poly, -1, 5)
        assert not polygon_contains(poly, 5, 10.1)


class TestIntersection:
    def test_full_overlap(self):
        inter = square().intersect(square())
        assert inter is not None
        assert inter.area == pytest.approx(100.0)

    def test_partial_overlap_area(self):
        a = square(0, 0, 10, 10)
        b = square(5, 5, 15, 15)
        inter = a.intersect(b)
        assert inter is not None
        assert inter.area == pytest.approx(25.0)

    def test_disjoint_returns_none(self):
        assert square(0, 0, 5, 5).intersect(square(6, 6, 10, 10)) is None

    def test_contained_polygon(self):
        outer = square(0, 0, 20, 20)
        inner = square(5, 5, 10, 10)
        inter = outer.intersect(inner)
        assert inter is not None
        assert inter.area == pytest.approx(inner.area)

    def test_intersection_commutative_area(self):
        a = square(0, 0, 10, 10)
        b = ConvexPolygon(((3, -2), (14, 4), (6, 12)))
        ab = a.overlap_area(b)
        ba = b.overlap_area(a)
        assert ab == pytest.approx(ba)
        assert 0 < ab < min(a.area, b.area)

    def test_overlap_area_bounded_by_min_area(self):
        a = square(0, 0, 8, 8)
        b = square(4, 4, 20, 20)
        assert a.overlap_area(b) <= min(a.area, b.area) + 1e-9

    def test_edge_touching_returns_none_or_zero(self):
        a = square(0, 0, 5, 5)
        b = square(5, 0, 10, 5)
        inter = a.intersect(b)
        assert inter is None or inter.area < 1e-9


class TestSector:
    def test_sector_contains_points_on_axis(self):
        sector = ConvexPolygon.sector((0, 0), 0.0, math.pi / 4, 50.0)
        assert polygon_contains(sector, 10, 0)
        assert polygon_contains(sector, 30, 10)
        assert not polygon_contains(sector, -5, 0)
        assert not polygon_contains(sector, 0, 40)

    def test_sector_invalid_params_raise(self):
        with pytest.raises(ValueError):
            ConvexPolygon.sector((0, 0), 0.0, math.pi, 50.0)
        with pytest.raises(ValueError):
            ConvexPolygon.sector((0, 0), 0.0, math.pi / 4, -1.0)

    def test_sector_area_close_to_circular_sector(self):
        half = math.pi / 6
        radius = 40.0
        sector = ConvexPolygon.sector((0, 0), 0.5, half, radius, arc_segments=32)
        expected = half * radius**2  # area of a circular sector of 2*half
        assert sector.area == pytest.approx(expected, rel=0.02)
