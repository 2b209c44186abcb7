"""Comparison methods: detection-derived action maps and feature-augmented
unregularized weighted NMF."""

import warnings
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from actionmaps.solver import ActionMatrixBundle, SolverParams, fit, normalize_action_map, predict


class BaselineError(ValueError):
    """Invalid baseline input."""


@dataclass(frozen=True)
class CategoryActivityMap:
    """Associates each object category with the activities it affords."""

    mapping: Mapping[int, frozenset[int]]
    n_categories: int
    n_activities: int

    def __post_init__(self):
        for cat, acts in self.mapping.items():
            if not 0 <= cat < self.n_categories:
                raise BaselineError(f"category index {cat} out of range")
            for a in acts:
                if not 0 <= a < self.n_activities:
                    raise BaselineError(f"activity index {a} out of range")

    @classmethod
    def from_names(cls, pairs, category_names, activity_names):
        mapping: dict[int, frozenset[int]] = {}
        cats = list(category_names)
        acts = list(activity_names)
        for cat_name, act_names in pairs.items():
            if cat_name not in cats:
                raise BaselineError(f"unknown category {cat_name!r}")
            mapping[cats.index(cat_name)] = frozenset(acts.index(a) for a in act_names)
        return cls(mapping=mapping, n_categories=len(cats), n_activities=len(acts))


def detection_action_map(
    object_scores: np.ndarray, catmap: CategoryActivityMap
) -> np.ndarray:
    """Raw action map from back-projected detections alone.

    Each activity takes the max score over the categories mapped to it
    (monotone in the object scores). Like the solver's raw predictions, the
    map is max-normalized downstream before evaluation.
    """
    m, n_cat = object_scores.shape
    if n_cat != catmap.n_categories:
        raise BaselineError(
            f"object scores have {n_cat} categories, map expects {catmap.n_categories}"
        )
    am = np.zeros((m, catmap.n_activities))
    for cat, acts in catmap.mapping.items():
        for a in acts:
            am[:, a] = np.maximum(am[:, a], object_scores[:, cat])
    if not am.any():
        warnings.warn("detection action map is all zero (no mapped detections)")
    return am


def augmented_wnmf(
    bundle: ActionMatrixBundle,
    scene_scores: Optional[np.ndarray],
    object_scores: Optional[np.ndarray],
    params: SolverParams,
    explored_rows: np.ndarray,
) -> np.ndarray:
    """Unregularized weighted NMF on R augmented with the feature columns.

    Feature columns are max-normalized and weighted 1 at camera-observed
    locations, 0 elsewhere; all-zero feature columns are dropped, so the
    result is invariant to appending them. Returns the normalized action map
    restricted to the activity columns.
    """
    m, n_act = bundle.shape
    blocks = [b for b in (scene_scores, object_scores) if b is not None and b.size]
    feats = np.hstack(blocks) if blocks else np.zeros((m, 0))
    if feats.shape[0] != m:
        raise BaselineError(f"feature rows {feats.shape[0]} do not match R rows {m}")
    if not np.all(np.isfinite(feats)) or (feats < 0).any():
        raise BaselineError("feature columns must be finite and non-negative")
    top = feats.max(axis=0)
    keep = top > 0
    feats = feats[:, keep] / top[keep]

    r_aug = np.hstack([bundle.R, feats])
    w_feat = np.repeat(explored_rows[:, None].astype(float), feats.shape[1], axis=1)
    w_aug = np.hstack([bundle.W, w_feat])
    r_aug[w_aug == 0] = 0.0
    aug = ActionMatrixBundle(R=r_aug, W=w_aug)
    result = fit(aug, None, params=replace(params, lam=0.0))
    return normalize_action_map(predict(result.factors)[:, :n_act])
