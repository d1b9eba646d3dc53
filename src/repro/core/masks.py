"""Camera cell masks (Figure 8).

After the central stage, every camera's frame is divided into a grid of
pixel cells; for each cell we compute the *coverage set* — which cameras
can see the world region behind that cell — using the cross-camera
classification models (the same models used for association, so the masks
work with static camera poses only, as the paper notes). The distributed
stage resolves each cell to an owner camera by priority; the static
partitioning baseline resolves it by processing power instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.association.pairwise import PairwiseAssociator
from repro.geometry.box import BBox

#: Memoized mask builds, keyed by fitted associator instance. Masks are a
#: pure function of (static camera poses, fitted models), i.e. offline
#: artifacts: every run over the same trained models rebuilds byte-identical
#: grids, so the runtime path reuses them. CameraMask objects are never
#: mutated after construction (callers replace dict entries, not masks),
#: which is what makes sharing safe. Entries die with the associator.
_MASK_MEMO: "WeakKeyDictionary[PairwiseAssociator, Dict[tuple, Dict[int, CameraMask]]]" = (
    WeakKeyDictionary()
)


@dataclass
class CameraMask:
    """Per-cell coverage sets over one camera's frame."""

    camera_id: int
    frame_w: float
    frame_h: float
    nx: int
    ny: int
    coverage: List[List[Tuple[int, ...]]]  # [iy][ix] -> camera ids

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must be at least 1x1")
        if len(self.coverage) != self.ny or any(
            len(row) != self.nx for row in self.coverage
        ):
            raise ValueError("coverage grid shape mismatch")

    def cell_of(self, box: BBox) -> Tuple[int, int]:
        """Grid cell containing the box centre (clamped to the frame)."""
        cx, cy = box.center
        ix = min(self.nx - 1, max(0, int(cx / self.frame_w * self.nx)))
        iy = min(self.ny - 1, max(0, int(cy / self.frame_h * self.ny)))
        return (ix, iy)

    def coverage_of(self, box: BBox) -> Tuple[int, ...]:
        """Coverage set of the cell under ``box``'s centre."""
        ix, iy = self.cell_of(box)
        return self.coverage[iy][ix]


def build_camera_masks(
    frame_sizes: Dict[int, Tuple[int, int]],
    associator: PairwiseAssociator,
    typical_box_sizes: Dict[int, float],
    grid: Tuple[int, int] = (16, 12),
) -> Dict[int, CameraMask]:
    """Compute masks for every camera via the visibility classifiers.

    ``typical_box_sizes`` gives, per camera, a representative box side
    length (e.g. the median training box size); the classifier is queried
    with a nominal box of that size at each cell centre.

    Results are memoized per fitted associator (masks only depend on the
    trained models and the static rig), so repeated runs and membership
    re-fits over the same subset skip the classifier sweep entirely. The
    returned dict is a fresh copy each call — callers may mutate it —
    while the CameraMask values are shared read-only.
    """
    key = (
        associator._fit_token,
        tuple(grid),
        tuple(sorted(frame_sizes.items())),
        tuple(sorted(typical_box_sizes.items())),
    )
    per_assoc = _MASK_MEMO.setdefault(associator, {})
    cached = per_assoc.get(key)
    if cached is not None:
        return dict(cached)
    masks = _build_camera_masks_uncached(
        frame_sizes, associator, typical_box_sizes, grid
    )
    per_assoc[key] = masks
    return dict(masks)


def _build_camera_masks_uncached(
    frame_sizes: Dict[int, Tuple[int, int]],
    associator: PairwiseAssociator,
    typical_box_sizes: Dict[int, float],
    grid: Tuple[int, int],
) -> Dict[int, CameraMask]:
    """The actual classifier sweep behind :func:`build_camera_masks`."""
    nx, ny = grid
    camera_ids = sorted(frame_sizes)
    masks: Dict[int, CameraMask] = {}
    for cam in camera_ids:
        w, h = frame_sizes[cam]
        size = typical_box_sizes.get(cam, 60.0)
        # All nx*ny cell probes at once: one batched classifier call per
        # (cam, other) pair instead of one per cell per pair.
        probes: List[BBox] = []
        for iy in range(ny):
            cy = (iy + 0.5) / ny * h
            for ix in range(nx):
                cx = (ix + 0.5) / nx * w
                probes.append(BBox.from_xywh(cx, cy, size, size * 0.7))
        others = [other for other in camera_ids if other != cam]
        visible = {
            other: associator.predict_visible_many(cam, other, probes)
            for other in others
        }
        coverage_grid: List[List[Tuple[int, ...]]] = []
        for iy in range(ny):
            row: List[Tuple[int, ...]] = []
            for ix in range(nx):
                cell = iy * nx + ix
                covering = [cam] + [
                    other for other in others if visible[other][cell]
                ]
                row.append(tuple(sorted(covering)))
            coverage_grid.append(row)
        masks[cam] = CameraMask(
            camera_id=cam,
            frame_w=float(w),
            frame_h=float(h),
            nx=nx,
            ny=ny,
            coverage=coverage_grid,
        )
    return masks


def priority_owner(
    coverage: Sequence[int],
    priority_order: Sequence[int],
    exclude: Sequence[int] = (),
) -> Optional[int]:
    """BALB owner rule: the highest-priority camera covering the cell.

    ``priority_order`` lists camera ids by increasing central-stage
    latency; the first covering camera in that order owns the cell.
    """
    excluded = set(exclude)
    for cam in priority_order:
        if cam in coverage and cam not in excluded:
            return cam
    return None


def capacity_owner(
    coverage: Sequence[int],
    capacities: Dict[int, float],
    cell: Tuple[int, int],
    grid_nx: int = 16,
) -> Optional[int]:
    """Static-partitioning owner rule (Section IV-C baselines).

    Splits shared cells between covering cameras proportionally to their
    processing power, in *contiguous* vertical bands: the cell's horizontal
    position selects a camera by cumulative capacity share. Contiguous
    regions are what static spatial partitioning systems actually deploy —
    and they are exactly why SP suffers under bursty traffic: a platoon
    crossing one band lands entirely on one camera.
    """
    cams = sorted(set(coverage))
    if not cams:
        return None
    if len(cams) == 1:
        return cams[0]
    total = sum(capacities.get(c, 1.0) for c in cams)
    if total <= 0:
        return cams[0]
    ix, _ = cell
    r = (ix + 0.5) / max(grid_nx, 1)
    acc = 0.0
    for cam in cams:
        acc += capacities.get(cam, 1.0) / total
        if r < acc:
            return cam
    return cams[-1]
