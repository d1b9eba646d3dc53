"""Figure 11: cross-camera location regression — model comparison.

Per scenario, fit each candidate regressor (KNN, homography, linear,
RANSAC) on the positive rows of each camera pair's train half and measure
mean absolute error (pixels over box coordinates) on the test half. The
paper's finding: KNN reaches the lowest MAE in S1/S3 and ties linear /
RANSAC in S2, while homography is much worse everywhere because bounding
boxes are not ground-plane points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.association.baselines import REGRESSOR_FACTORIES
from repro.experiments.assoc_data import collect_and_split
from repro.ml.metrics import mean_absolute_error
from repro.scenarios.aic21 import get_scenario


@dataclass
class RegressionRow:
    """One model's pooled MAE on one scenario."""

    scenario: str
    model: str
    mae_px: float
    n_test: int


def evaluate_regressors(
    scenario_name: str,
    duration_s: float = 150.0,
    seed: int = 0,
    models: Dict[str, object] | None = None,
) -> List[RegressionRow]:
    """Figure 11 for one scenario: pooled MAE (pixels) per model."""
    scenario = get_scenario(scenario_name, seed=seed)
    splits = collect_and_split(scenario, duration_s=duration_s, seed=seed)
    factories = models or REGRESSOR_FACTORIES
    rows: List[RegressionRow] = []
    for name, factory in factories.items():
        errors: List[float] = []
        n_test = 0
        for split in splits.values():
            if len(split.xr_train) < 8 or len(split.xr_test) < 2:
                continue
            try:
                model = factory().fit(split.xr_train, split.yr_train)
                pred = model.predict(split.xr_test)
            except (ValueError, np.linalg.LinAlgError):
                continue  # degenerate pair for this model (e.g. homography)
            errors.append(mean_absolute_error(split.yr_test, pred))
            n_test += len(split.xr_test)
        mae = float(np.mean(errors)) if errors else float("nan")
        rows.append(
            RegressionRow(
                scenario=scenario_name, model=name, mae_px=mae, n_test=n_test
            )
        )
    return rows
