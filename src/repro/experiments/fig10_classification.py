"""Figure 10: cross-camera visibility classification — model comparison.

Per scenario, fit each candidate classifier (KNN, SVM, logistic, decision
tree) on the chronological train half of every camera pair's rows, predict
the test half, and pool precision/recall over pairs. The paper's finding:
KNN achieves the best precision (the metric that matters — a false
positive silently drops an object from tracking), except in S2 where
logistic classification is marginally better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.association.baselines import CLASSIFIER_FACTORIES
from repro.experiments.assoc_data import PairSplit, collect_and_split
from repro.ml.metrics import BinaryMetrics, binary_metrics
from repro.ml.scaling import StandardScaler
from repro.scenarios.aic21 import get_scenario


@dataclass
class ClassificationRow:
    """One model's pooled result on one scenario."""

    scenario: str
    model: str
    precision: float
    recall: float
    f1: float
    n_test: int


def evaluate_classifiers(
    scenario_name: str,
    duration_s: float = 150.0,
    seed: int = 0,
    models: Dict[str, object] | None = None,
) -> List[ClassificationRow]:
    """Figure 10 for one scenario: pooled precision/recall per model."""
    scenario = get_scenario(scenario_name, seed=seed)
    splits = collect_and_split(scenario, duration_s=duration_s, seed=seed)
    factories = models or CLASSIFIER_FACTORIES
    rows: List[ClassificationRow] = []
    for name, factory in factories.items():
        pooled = _pooled_metrics(splits, factory)
        rows.append(
            ClassificationRow(
                scenario=scenario_name,
                model=name,
                precision=pooled.precision,
                recall=pooled.recall,
                f1=pooled.f1,
                n_test=pooled.tp + pooled.fp + pooled.fn + pooled.tn,
            )
        )
    return rows


def _pooled_metrics(splits: Dict[object, PairSplit], factory) -> BinaryMetrics:
    tp = fp = fn = tn = 0
    for split in splits.values():
        scaler = StandardScaler().fit(split.x_train)
        model = factory().fit(scaler.transform(split.x_train), split.y_train)
        pred = model.predict(scaler.transform(split.x_test))
        m = binary_metrics(split.y_test, pred)
        tp += m.tp
        fp += m.fp
        fn += m.fn
        tn += m.tn
    return BinaryMetrics(tp=tp, fp=fp, fn=fn, tn=tn)
