"""Supervised dataset collection for cross-camera association.

The paper trains its KNN classification/regression models offline on
human-labelled cross-camera correspondences (Section II-C). Here the
labels come from the world simulator's ground truth: for every ordered
camera pair ``(i, i')`` and every object visible on ``i``, we record the
object's box on ``i`` as the feature, whether it is visible on ``i'`` as
the classification label, and (when visible) its box on ``i'`` as the
regression target. The paper uses the first half of each video for
training; the pipeline mirrors that by training on a separate simulation
segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.cameras.rig import CameraRig
from repro.geometry.box import BBox
from repro.world.world import World

PairKey = Tuple[int, int]
"""Ordered camera pair ``(source_camera_id, target_camera_id)``."""


def box_features(box: BBox) -> List[float]:
    """Feature vector of a source box: centre, size and aspect."""
    cx, cy, w, h = box.as_xywh()
    return [cx, cy, w, h, w / max(h, 1e-6)]


def box_target(box: BBox) -> List[float]:
    """Regression target: the target-camera box as ``(cx, cy, w, h)``."""
    cx, cy, w, h = box.as_xywh()
    return [cx, cy, w, h]


@dataclass
class PairDataset:
    """Training rows for one ordered camera pair."""

    pair: PairKey
    features: List[List[float]] = field(default_factory=list)
    visible_labels: List[int] = field(default_factory=list)
    targets: List[List[float]] = field(default_factory=list)  # rows where label=1
    target_features: List[List[float]] = field(default_factory=list)

    def add(self, source_box: BBox, target_box: BBox | None) -> None:
        """Append one correspondence row (``target_box=None`` = not visible)."""
        feats = box_features(source_box)
        self.features.append(feats)
        self.visible_labels.append(1 if target_box is not None else 0)
        if target_box is not None:
            self.target_features.append(feats)
            self.targets.append(box_target(target_box))

    @property
    def n_samples(self) -> int:
        return len(self.features)

    @property
    def n_positive(self) -> int:
        return len(self.targets)

    def classification_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All rows as ``(features, visibility_labels)`` float arrays."""
        return (
            np.asarray(self.features, dtype=float),
            np.asarray(self.visible_labels, dtype=float),
        )

    def regression_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Positive rows as ``(features, target_boxes)`` float arrays."""
        return (
            np.asarray(self.target_features, dtype=float),
            np.asarray(self.targets, dtype=float),
        )


@dataclass
class AssociationDataset:
    """Datasets for all ordered camera pairs of a rig."""

    pairs: Dict[PairKey, PairDataset] = field(default_factory=dict)

    def pair(self, source: int, target: int) -> PairDataset:
        """The (lazily created) dataset for the ordered camera pair."""
        key = (source, target)
        if key not in self.pairs:
            self.pairs[key] = PairDataset(pair=key)
        return self.pairs[key]


def collect_association_dataset(
    world: World,
    rig: CameraRig,
    duration_s: float,
    sample_interval_s: float = 0.5,
    dt: float = 0.1,
) -> AssociationDataset:
    """Simulate ``world`` and harvest cross-camera correspondences.

    Uses noise-free ground-truth projections (the analogue of the human
    bounding-box labels in AIC21). Samples every ``sample_interval_s`` to
    decorrelate consecutive rows.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if sample_interval_s < dt:
        raise ValueError("sample_interval_s must be >= dt")
    dataset = AssociationDataset()
    steps_per_sample = max(1, int(round(sample_interval_s / dt)))
    total_steps = int(round(duration_s / dt))
    for step in range(total_steps):
        world.step(dt)
        if step % steps_per_sample != 0:
            continue
        projections = rig.project_all(world.objects)
        for source_cam in rig.camera_ids:
            source_boxes = projections[source_cam]
            for target_cam in rig.camera_ids:
                if target_cam == source_cam:
                    continue
                target_boxes = projections[target_cam]
                pair_ds = dataset.pair(source_cam, target_cam)
                for obj_id, sbox in source_boxes.items():
                    pair_ds.add(sbox, target_boxes.get(obj_id))
    return dataset
