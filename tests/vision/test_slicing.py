"""Tests for tracking-based image slicing."""

import pytest

from repro.geometry.box import BBox, quantize_size
from repro.vision.slicing import pinned_size, slice_tracks
from repro.vision.tracks import Track

FRAME = (1280, 704)
SIZES = (64, 128, 256, 512)


def track(tid, box, size=None):
    return Track(tid, box, size=size)


def region(corners):
    return BBox(*corners)


class TestTargetSizeBook:
    """The size pinned on a track for the current horizon."""

    def test_assign_and_lookup(self):
        assert pinned_size(BBox.from_xywh(100, 100, 50, 40), SIZES) == 128
        # 50 + 2*8 margin = 66 -> 128, and slicing pins it on the track.
        t = track(1, BBox.from_xywh(100, 100, 50, 40))
        slice_tracks([t], SIZES, FRAME)
        assert t.size == 128

    def test_size_fixed_within_horizon(self):
        t = track(1, BBox.from_xywh(300, 300, 30, 30))
        slice_tracks([t], SIZES, FRAME)
        t.bbox = BBox.from_xywh(300, 300, 400, 400)  # the object grew
        (_, _, size), = slice_tracks([t], SIZES, FRAME)
        assert size == t.size == 64

    def test_reset_clears(self):
        # A key frame clears the pin; the next slice re-pins from the box.
        t = track(1, BBox.from_xywh(300, 300, 30, 30))
        slice_tracks([t], SIZES, FRAME)
        t.size = None
        t.bbox = BBox.from_xywh(300, 300, 100, 100)
        slice_tracks([t], SIZES, FRAME)
        assert t.size == 128

    def test_drop_single_key(self):
        # Each track carries its own pin.
        a = track(1, BBox.from_xywh(300, 300, 30, 30))
        b = track(2, BBox.from_xywh(600, 300, 30, 30))
        slice_tracks([a, b], SIZES, FRAME)
        a.size = None
        assert b.size == 64

    def test_custom_size_set(self):
        assert pinned_size(BBox.from_xywh(0, 0, 40, 40), (32, 96)) == 96

    def test_empty_size_set_raises(self):
        with pytest.raises(ValueError):
            pinned_size(BBox.from_xywh(0, 0, 40, 40), ())


class TestBuildSlices:
    def test_basic_slice_geometry(self):
        t = track(1, BBox.from_xywh(300, 300, 50, 40))
        slices = slice_tracks([t], SIZES, FRAME)
        assert len(slices) == 1
        owner, corners, size = slices[0]
        assert owner is t
        assert size == 128
        assert region(corners).width == pytest.approx(128)
        assert region(corners).center == pytest.approx((300, 300))

    def test_slice_shifted_inside_frame(self):
        t = track(1, BBox.from_xywh(10, 10, 50, 40))  # near the corner
        (_, corners, _), = slice_tracks([t], SIZES, FRAME)
        box = region(corners)
        assert box.x1 >= 0 and box.y1 >= 0
        assert box.width == pytest.approx(128)  # full size retained

    def test_deterministic_order_by_key(self):
        tracks = [
            track(1, BBox.from_xywh(500, 300, 30, 30)),
            track(5, BBox.from_xywh(300, 300, 30, 30)),
        ]
        slices = slice_tracks(tracks, SIZES, FRAME)
        assert [t.track_id for t, _, _ in slices] == [1, 5]

    def test_uses_pinned_sizes(self):
        t = track(1, BBox.from_xywh(300, 300, 300, 300), size=64)
        (_, _, size), = slice_tracks([t], SIZES, FRAME)
        assert size == 64

    def test_empty_input(self):
        assert slice_tracks([], SIZES, FRAME) == []

    def test_geometry_equals_the_bbox_operations(self):
        """Corners and sizes equal BBox.center/from_xywh/clip exactly,
        at the frame edges (shifted and clipped) and inside it."""
        w, h = FRAME
        cases = [
            BBox(0.0, 0.0, 3.0, 3.0),
            BBox(1270.5, 690.25, 1280.0, 704.0),
            BBox(600.125, 1.0, 1100.0, 703.0),  # taller than the frame
            BBox(-0.0, 300.0, 40.0, 340.0),
            BBox(400.3, 200.7, 437.9, 251.1),
            BBox(100.0, 100.0, 700.0, 140.0),
        ]
        # (1024,) squares exceed the frame's height, so they clip.
        for sizes, box in [(s, b) for s in (SIZES, (1024,)) for b in cases]:
            t = track(1, box)
            slices = slice_tracks([t], sizes, FRAME)
            size = quantize_size(box.expand(8.0).long_side, sizes)
            assert pinned_size(box, sizes) == size
            cx, cy = box.center
            half = size / 2.0
            cx = min(max(cx, half), max(half, w - half))
            cy = min(max(cy, half), max(half, h - half))
            expected = BBox.from_xywh(cx, cy, float(size), float(size)).clip(
                float(w), float(h)
            )
            if expected.is_empty():
                assert slices == []
                continue
            (_, corners, got_size), = slices
            assert got_size == size
            assert [v.hex() for v in corners] == [
                v.hex() for v in expected.as_tuple()
            ]
