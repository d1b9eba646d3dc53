"""Shared data preparation for the association studies (Figures 10/11).

Collects a cross-camera correspondence dataset from a scenario and splits
it chronologically — the paper trains on the first half of each video and
tests on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
import pickle
from typing import Dict

import numpy as np

from repro.association.training import (
    AssociationDataset,
    PairKey,
    collect_association_dataset,
)
from repro.ml.metrics import train_test_split_indices
from repro.runtime.trajectory import shared
from repro.scenarios.builder import Scenario


@dataclass
class PairSplit:
    """Chronological train/test split of one camera pair's rows."""

    x_train: np.ndarray
    y_train: np.ndarray  # visibility labels
    x_test: np.ndarray
    y_test: np.ndarray
    # Regression rows (positives only), split the same way.
    xr_train: np.ndarray
    yr_train: np.ndarray
    xr_test: np.ndarray
    yr_test: np.ndarray


def collect_and_split(
    scenario: Scenario,
    duration_s: float = 150.0,
    warmup_s: float = 30.0,
    seed: int = 0,
    train_fraction: float = 0.5,
) -> Dict[PairKey, PairSplit]:
    """Build per-pair chronological splits for a scenario.

    Inside a sharing scope (:func:`repro.runtime.trajectory.share_worlds`)
    the splits are built once per scenario (by value), duration, warm-up,
    seed and fraction, and every caller receives the same read-only
    splits: FIG10 and FIG11 evaluate one dataset.
    """

    def build() -> Dict[PairKey, PairSplit]:
        world, rig = scenario.build(seed=seed)
        dt = scenario.frame_interval
        world.run(warmup_s, dt)
        dataset = collect_association_dataset(world, rig, duration_s, dt=dt)
        return split_dataset(dataset, train_fraction)

    key = (
        "association-splits", pickle.dumps(scenario, protocol=4),
        duration_s, warmup_s, seed, train_fraction,
    )
    return shared(key, build)


def split_dataset(
    dataset: AssociationDataset, train_fraction: float = 0.5
) -> Dict[PairKey, PairSplit]:
    """Split every pair's rows chronologically into train/test."""
    splits: Dict[PairKey, PairSplit] = {}
    for key, pair_ds in dataset.pairs.items():
        n = pair_ds.n_samples
        if n < 10 or pair_ds.n_positive < 6:
            continue  # too little signal for a meaningful evaluation
        x, y = pair_ds.classification_arrays()
        tr, te = train_test_split_indices(n, train_fraction)
        xr, yr = pair_ds.regression_arrays()
        m = len(xr)
        tr_r, te_r = train_test_split_indices(m, train_fraction)
        if len(np.unique(y[tr])) < 2 or len(np.unique(y[te])) < 2:
            continue  # degenerate labels on one side of the split
        splits[key] = PairSplit(
            x_train=x[tr],
            y_train=y[tr],
            x_test=x[te],
            y_test=y[te],
            xr_train=xr[tr_r],
            yr_train=yr[tr_r],
            xr_test=xr[te_r],
            yr_test=yr[te_r],
        )
    return splits
