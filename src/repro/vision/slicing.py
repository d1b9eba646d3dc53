"""Tracking-based image slicing (Section II-B).

On regular frames the DNN only inspects square regions around the
predicted object locations, quantized to the size set so same-size regions
can be batched. The quantized size of an object is **fixed within a
scheduling horizon** on a given camera: it is pinned on the track at first
sight (:attr:`Track.size`) and cleared at each key frame — with one
exception: when the object grows beyond its region, the region is
re-quantized upward (the paper performs "downsizing" of the image content
instead, which costs the same; we model it as the size staying servable).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry.box import BBox, clamp, quantize_size
from repro.vision.tracks import Track

#: One inspection task: the track, its search region's ``(x1, y1, x2,
#: y2)`` corners, and the quantized size that is its batching key.
Slice = Tuple[Track, Tuple[float, float, float, float], int]


def pinned_size(box: BBox, size_set: Sequence[int], margin: float = 8.0) -> int:
    """The quantized size pinned for a track first seen at ``box``.

    That is the long side of ``box.expand(margin)`` (``margin >= 0``),
    with the same subtractions.
    """
    w = (box.x2 + margin) - (box.x1 - margin)
    h = (box.y2 + margin) - (box.y1 - margin)
    return quantize_size(h if h > w else w, size_set)


def slice_tracks(
    tracks: Sequence[Track],
    size_set: Sequence[int],
    frame_size: Tuple[int, int],
    margin: float = 8.0,
) -> List[Slice]:
    """The tracks' slices, in their order.

    The square region is centred on the track's box; its side is the
    track's pinned size, pinned here on first sight. Regions are shifted
    (not shrunk) to stay inside the frame so the batching key remains
    exact; a track whose region clips to nothing gets no slice. The
    geometry is ``BBox.center``, ``BBox.from_xywh`` and ``BBox.clip``
    on plain floats, with their groupings and Python's ``min``/``max``
    tie rules.
    """
    w, h = frame_size
    fw = float(w)
    fh = float(h)
    slices: List[Slice] = []
    for track in tracks:
        box = track.bbox
        size = track.size
        if size is None:
            size = track.size = pinned_size(box, size_set, margin)
        half = size / 2.0
        hi_x = w - half
        hi_y = h - half
        if not hi_x > half:
            hi_x = half
        if not hi_y > half:
            hi_y = half
        cx = (box.x1 + box.x2) / 2.0
        cy = (box.y1 + box.y2) / 2.0
        # min(max(c, half), hi), the shift that keeps the square in frame.
        if half > cx:
            cx = half
        if hi_x < cx:
            cx = hi_x
        if half > cy:
            cy = half
        if hi_y < cy:
            cy = hi_y
        side = float(size)
        x1 = cx - side / 2.0
        y1 = cy - side / 2.0
        x2 = cx + side / 2.0
        y2 = cy + side / 2.0
        if not (x1 >= 0.0 and y1 >= 0.0 and x2 <= fw and y2 <= fh):
            x1 = clamp(x1, fw)
            y1 = clamp(y1, fh)
            x2 = clamp(x2, fw)
            y2 = clamp(y2, fh)
        if x2 - x1 <= 1e-9 or y2 - y1 <= 1e-9:
            continue
        slices.append((track, (x1, y1, x2, y2), size))
    return slices
