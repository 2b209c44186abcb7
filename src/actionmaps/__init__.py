"""Action-map completion: discretized scenes, kernel side-information, and
graph-regularized weighted NMF, plus the evaluation and localization tooling
built on top of them."""

from actionmaps.scene import (
    ActivityVocabulary,
    Demonstrations,
    GlobalIndex,
    GridPose,
    SceneGrid,
)
from actionmaps.sideinfo import GramBasis, KernelConfig, LocationFeatures
from actionmaps.solver import ActionMatrixBundle, FactorPair, SolverParams, fit, predict

__all__ = [
    "ActivityVocabulary",
    "Demonstrations",
    "GlobalIndex",
    "GridPose",
    "SceneGrid",
    "GramBasis",
    "KernelConfig",
    "LocationFeatures",
    "ActionMatrixBundle",
    "FactorPair",
    "SolverParams",
    "fit",
    "predict",
]

__version__ = "0.1.0"
