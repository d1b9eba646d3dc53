"""Property-based tests for the geometry substrate."""


import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.box import (
    DEFAULT_SIZE_SET,
    BBox,
    corner_array,
    iou_cost_stack,
    quantize_size,
    scalar_iou_cost_rows,
)
from repro.geometry.polygon import ConvexPolygon
from tests.geometry.reference_geometry import iou

coords = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
sizes = st.floats(0.1, 500, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    cx = draw(coords)
    cy = draw(coords)
    w = draw(sizes)
    h = draw(sizes)
    return BBox.from_xywh(cx, cy, w, h)


# Few distinct values make touching, nested and identical boxes common.
_grid_boxes = st.builds(
    lambda x, y, w, h: BBox(x, y, x + w, y + h),
    st.sampled_from([0.0, 5.0, 10.0]), st.sampled_from([0.0, 5.0, 10.0]),
    st.sampled_from([0.0, 5.0, 10.0]), st.sampled_from([0.0, 5.0, 10.0]),
)
_box_lists = st.lists(st.one_of(boxes(), _grid_boxes), min_size=1, max_size=12)


def _padded(blocks, width):
    out = np.zeros((len(blocks), width, 4))
    for i, block in enumerate(blocks):
        out[i, : len(block)] = corner_array(block)
        out[i, len(block) :] = 1.0e3  # padding: any boxes at all
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_box_lists, _box_lists), min_size=1, max_size=4))
def test_iou_cost_stack_equals_the_scalar_iou(pairs):
    """The stacked broadcast and the scalar mirror both equal 1 - iou."""
    n = np.array([len(a) for a, _ in pairs])
    m = np.array([len(b) for _, b in pairs])
    cost = iou_cost_stack(
        _padded([a for a, _ in pairs], n.max()), _padded([b for _, b in pairs], m.max()), n, m
    )
    for i, (a, b) in enumerate(pairs):
        want = [[1.0 - iou(x, y) for y in b] for x in a]
        assert cost[i, : len(a), : len(b)].tolist() == want
        assert np.isinf(cost[i, len(a) :]).all() and np.isinf(cost[i, :, len(b) :]).all()
        assert scalar_iou_cost_rows(
            [x.as_tuple() for x in a], [y.as_tuple() for y in b]
        ) == want


class TestBoxProperties:
    @given(boxes(), boxes())
    def test_iou_in_unit_interval(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0 + 1e-12

    @given(boxes(), boxes())
    def test_iou_symmetric(self, a, b):
        assert abs(iou(a, b) - iou(b, a)) < 1e-9

    @given(boxes())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    @given(boxes(), st.floats(-200, 200), st.floats(-200, 200))
    def test_iou_translation_invariant(self, a, dx, dy):
        b = BBox.from_xywh(a.center[0] + 10, a.center[1], a.width, a.height)
        before = iou(a, b)
        after = iou(a.translate(dx, dy), b.translate(dx, dy))
        assert abs(before - after) < 1e-6

    @given(boxes(), boxes())
    def test_intersection_bounded(self, a, b):
        inter = a.intersection(b)
        assert -1e-9 <= inter <= min(a.area, b.area) + 1e-6

    @given(boxes(), st.floats(0.1, 300))
    def test_clip_stays_inside_frame(self, a, frame):
        clipped = a.clip(frame, frame)
        assert clipped.x1 >= 0 and clipped.y1 >= 0
        assert clipped.x2 <= frame and clipped.y2 <= frame

    @given(boxes(), st.floats(0, 50))
    def test_expand_contains_original(self, a, margin):
        grown = a.expand(margin)
        assert grown.x1 <= a.x1 and grown.y1 <= a.y1
        assert grown.x2 >= a.x2 and grown.y2 >= a.y2


class TestQuantizeProperties:
    @given(st.floats(0.1, 2000))
    def test_quantize_returns_member(self, extent):
        assert quantize_size(extent) in DEFAULT_SIZE_SET

    @given(st.floats(0.1, float(max(DEFAULT_SIZE_SET))))
    def test_quantize_never_shrinks_below_max(self, extent):
        assert quantize_size(extent) >= extent

    @given(st.floats(0.1, 2000), st.floats(0.1, 2000))
    def test_quantize_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert quantize_size(lo) <= quantize_size(hi)


@st.composite
def rects(draw):
    x1 = draw(st.floats(-100, 90))
    y1 = draw(st.floats(-100, 90))
    w = draw(st.floats(1, 100))
    h = draw(st.floats(1, 100))
    x2, y2 = x1 + w, y1 + h
    return ConvexPolygon(((x1, y1), (x2, y1), (x2, y2), (x1, y2)))


def _bounds(poly):
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    return min(xs), min(ys), max(xs), max(ys)


class TestPolygonProperties:
    @settings(max_examples=50)
    @given(rects(), rects())
    def test_overlap_area_bounded(self, a, b):
        inter = a.overlap_area(b)
        assert -1e-9 <= inter <= min(a.area, b.area) + 1e-6

    @settings(max_examples=50)
    @given(rects(), rects())
    def test_overlap_symmetric(self, a, b):
        assert abs(a.overlap_area(b) - b.overlap_area(a)) < 1e-6

    @settings(max_examples=50)
    @given(rects())
    def test_self_overlap_is_area(self, a):
        assert abs(a.overlap_area(a) - a.area) < 1e-6

    @settings(max_examples=50)
    @given(rects(), rects())
    def test_rect_intersection_matches_box_formula(self, a, b):
        (ax1, ay1, ax2, ay2) = _bounds(a)
        (bx1, by1, bx2, by2) = _bounds(b)
        iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
        ih = max(0.0, min(ay2, by2) - max(ay1, by1))
        assert abs(a.overlap_area(b) - iw * ih) < 1e-6
