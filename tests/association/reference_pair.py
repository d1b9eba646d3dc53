"""The scalar, one-box-at-a-time pair path: the oracle of the batched one.

:class:`repro.association.pairwise.PairModel` predicts on arrays of
boxes. These functions ask its fitted models about one box at a time,
through the plain-Python feature encoding, so the tests can hold every
batched row to them.
"""

from typing import Optional

import numpy as np

from repro.association.pairwise import PairModel
from repro.association.training import box_features
from repro.geometry.box import BBox


def target_to_box(vec: np.ndarray) -> BBox:
    """Inverse of :func:`repro.association.training.box_target`, sizes clamped positive."""
    cx, cy, w, h = (float(v) for v in vec)
    return BBox.from_xywh(cx, cy, max(w, 2.0), max(h, 2.0))


def scaled_features(model: PairModel, box: BBox) -> np.ndarray:
    """One box's feature row, scaled by the pair's fitted scaler."""
    assert model.feature_scaler is not None
    raw = np.asarray([box_features(box)], dtype=float)
    return model.feature_scaler.transform(raw)


def predict_visible(model: PairModel, box: BBox, threshold: float = 0.5) -> bool:
    """Is a source-camera ``box`` visible on the target camera?"""
    if model.constant_label is not None:
        return bool(model.constant_label)
    if model.classifier is None or model.feature_scaler is None:
        return False
    feats = scaled_features(model, box)
    return bool(model.classifier.predict_proba(feats)[0] >= threshold)


def predict_box(model: PairModel, box: BBox) -> Optional[BBox]:
    """Predicted target-camera box for a source ``box`` (None if no regressor)."""
    if model.regressor is None or model.feature_scaler is None:
        return None
    return target_to_box(model.regressor.predict(scaled_features(model, box))[0])
