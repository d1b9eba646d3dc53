"""Unit tests for bounding boxes, IoU and size quantization."""


import numpy as np
import pytest

from repro.geometry.box import (
    DEFAULT_SIZE_SET,
    BBox,
    corner_array,
    iou_cost_stack,
    quantize_size,
)
from tests.geometry.reference_geometry import iou


class TestBBoxBasics:
    def test_properties(self):
        box = BBox(10, 20, 30, 60)
        assert box.width == 20
        assert box.height == 40
        assert box.area == 800
        assert box.center == (20, 40)
        assert box.long_side == 40

    def test_invalid_box_raises(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 5, 10)
        with pytest.raises(ValueError):
            BBox(0, 10, 5, 5)

    def test_from_xywh_roundtrip(self):
        box = BBox.from_xywh(50, 60, 20, 10)
        assert box.as_xywh() == (50, 60, 20, 10)

    def test_from_xywh_clamps_negative_size(self):
        box = BBox.from_xywh(5, 5, -10, -2)
        assert box.width == 0
        assert box.height == 0

    def test_from_points(self):
        box = BBox.from_points([(1, 5), (4, 2), (3, 3)])
        assert box.as_tuple() == (1, 2, 4, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BBox.from_points([])

    def test_immutability(self):
        box = BBox(0, 0, 1, 1)
        with pytest.raises(Exception):
            box.x1 = 5


class TestIoU:
    def test_identical_boxes(self):
        box = BBox(0, 0, 10, 10)
        assert iou(box, box) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 5, 5), BBox(10, 10, 20, 20)) == 0.0

    def test_touching_boxes_zero_iou(self):
        assert iou(BBox(0, 0, 5, 5), BBox(5, 0, 10, 5)) == 0.0

    def test_half_overlap(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(5, 0, 15, 10)
        # intersection 50, union 150
        assert iou(a, b) == pytest.approx(1 / 3)

    def test_symmetry(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(3, 4, 12, 9)
        assert iou(a, b) == pytest.approx(iou(b, a))

    def test_contained_box(self):
        outer = BBox(0, 0, 10, 10)
        inner = BBox(2, 2, 4, 4)
        assert iou(outer, inner) == pytest.approx(inner.area / outer.area)

    def test_degenerate_box_iou_zero(self):
        point = BBox(5, 5, 5, 5)
        assert iou(point, BBox(0, 0, 10, 10)) == 0.0


class TestBoxOps:
    def test_expand(self):
        box = BBox(10, 10, 20, 20).expand(5)
        assert box.as_tuple() == (5, 5, 25, 25)

    def test_expand_negative_collapses_gracefully(self):
        box = BBox(10, 10, 20, 20).expand(-10)
        assert box.is_empty()

    def test_scale(self):
        box = BBox.from_xywh(10, 10, 4, 6).scale(2.0)
        assert box.as_xywh() == (10, 10, 8, 12)

    def test_scale_negative_raises(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 1, 1).scale(-1)

    def test_translate(self):
        assert BBox(0, 0, 2, 2).translate(3, -1).as_tuple() == (3, -1, 5, 1)

    def test_clip_inside_noop(self):
        box = BBox(10, 10, 20, 20)
        assert box.clip(100, 100) == box

    def test_clip_partially_outside(self):
        box = BBox(-5, -5, 10, 10).clip(100, 100)
        assert box.as_tuple() == (0, 0, 10, 10)

    def test_clip_fully_outside_is_empty(self):
        assert BBox(200, 200, 250, 250).clip(100, 100).is_empty()


class TestQuantization:
    def test_quantize_exact_boundaries(self):
        assert quantize_size(64) == 64
        assert quantize_size(64.5) == 128
        assert quantize_size(1) == 64

    def test_quantize_above_max_downsamples(self):
        assert quantize_size(9999) == max(DEFAULT_SIZE_SET)

    def test_quantize_custom_set(self):
        assert quantize_size(33, size_set=(32, 96)) == 96

    def test_quantize_empty_set_raises(self):
        with pytest.raises(ValueError):
            quantize_size(10, size_set=())


class TestPairwiseIoU:
    """The ``1 - IoU`` cost blocks association matches on."""

    def test_matrix_shape_and_values(self):
        a = [BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)]
        b = [BBox(0, 0, 10, 10), BBox(5, 5, 15, 15)]
        stacked = np.stack((corner_array(a), corner_array(a)))
        pair_b = np.stack((corner_array(b),) * 2)
        cost = iou_cost_stack(stacked, pair_b, np.array([2, 1]), np.array([1, 2]))
        assert cost.shape == (2, 2, 2)
        assert cost[0, 0, 0] == pytest.approx(0.0)
        assert cost[0, 1, 0] == 1.0
        assert cost[1, 0].tolist() == [pytest.approx(0.0), pytest.approx(1.0 - 25 / 175)]
        # Cells outside each block are +inf, whatever the padding holds.
        assert np.isinf(cost[0, :, 1]).all() and np.isinf(cost[1, 1]).all()

    def test_empty_inputs(self):
        empty = np.zeros((1, 0, 4))
        assert iou_cost_stack(empty, empty, np.array([0]), np.array([0])).shape == (1, 0, 0)
