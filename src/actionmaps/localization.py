"""Localizing activity observations with a completed action map.

Ranks grid cells per activity by predicted score and reports, for each K,
the distance from the best of the top-K guesses to the true location.
"""

from dataclasses import dataclass

import numpy as np

from actionmaps.scene import SceneGrid, grid_coords


class LocalizationError(ValueError):
    """Invalid query or map input."""


@dataclass
class DiscrepancyCurve:
    """Mean spatial discrepancy (grid cells) of the top-K guesses."""

    k_values: np.ndarray
    per_activity: dict[int, np.ndarray]
    aggregate: np.ndarray


def discrepancy_curve(am_scene: np.ndarray, scene: SceneGrid, k_max: int) -> DiscrepancyCurve:
    """Per-K minimum distance from the ranked guesses to each labelled cell of
    the scene, averaged per activity and over all (cell, activity) labels;
    non-increasing in K by construction.

    Cells are ranked by descending score, ties in row-major order; K stops at
    the scene's cell count.
    """
    if k_max < 1:
        raise LocalizationError("k_max must be >= 1")
    if am_scene.shape != (scene.n_cells, scene.n_activities):
        raise LocalizationError(
            f"map is {am_scene.shape}, scene needs {(scene.n_cells, scene.n_activities)}"
        )
    first_row = scene.labels.argmax(axis=0)
    present = np.flatnonzero(scene.labels.any(axis=0))
    if present.size == 0:
        raise LocalizationError(f"scene {scene.scene_id!r} has no labelled cells")
    k_max = min(k_max, scene.n_cells)
    coords = grid_coords(scene.width, scene.height)
    curves = {}  # activities in first-seen order: by first labelled row, then index
    for a in present[np.lexsort((present, first_row[present]))].tolist():
        order = np.argsort(-am_scene[:, a], kind="stable")[:k_max]
        true = coords[scene.labels[:, a]].astype(float)
        dists = np.hypot(
            coords[order, 0][None, :] - true[:, :1],
            coords[order, 1][None, :] - true[:, 1:],
        )
        curves[a] = np.minimum.accumulate(dists, axis=1)
    return DiscrepancyCurve(
        k_values=np.arange(1, k_max + 1),
        per_activity={a: np.mean(curves[a], axis=0) for a in sorted(curves)},
        aggregate=np.mean(np.concatenate(list(curves.values())), axis=0),
    )
