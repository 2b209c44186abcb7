"""Action-map completion: discretized scenes, kernel side-information, and
graph-regularized weighted NMF, plus the evaluation and localization tooling
built on top of them."""

from actionmaps.scene import (
    ActivityVocabulary,
    Demonstration,
    GlobalIndex,
    GridPose,
    SceneGrid,
    SceneStats,
    create_scene,
    stack_scenes,
)
from actionmaps.sideinfo import GramBasis, KernelConfig, LocationFeatures
from actionmaps.solver import ActionMatrixBundle, FactorPair, SolverParams, fit, predict

__all__ = [
    "ActivityVocabulary",
    "Demonstration",
    "GlobalIndex",
    "GridPose",
    "SceneGrid",
    "SceneStats",
    "create_scene",
    "stack_scenes",
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
