"""Cross-camera object association: training, pair models, matching."""

from repro.association.baselines import (
    CLASSIFIER_FACTORIES,
    REGRESSOR_FACTORIES,
    HomographyBoxRegressor,
)
from repro.association.matcher import (
    CrossCameraMatcher,
    GlobalObject,
    LocalObservation,
)
from repro.association.pairwise import (
    PairModel,
    PairwiseAssociator,
    default_classifier_factory,
    default_regressor_factory,
)
from repro.association.training import (
    AssociationDataset,
    PairDataset,
    box_features,
    box_target,
    collect_association_dataset,
)

__all__ = [
    "AssociationDataset",
    "PairDataset",
    "collect_association_dataset",
    "box_features",
    "box_target",
    "PairModel",
    "PairwiseAssociator",
    "default_classifier_factory",
    "default_regressor_factory",
    "CrossCameraMatcher",
    "GlobalObject",
    "LocalObservation",
    "HomographyBoxRegressor",
    "CLASSIFIER_FACTORIES",
    "REGRESSOR_FACTORIES",
]
