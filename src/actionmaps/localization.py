"""Localizing activity observations with a completed action map.

Ranks grid cells per activity by predicted score and reports, for each K,
the distance from the best of the top-K guesses to the true location.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class LocalizationError(ValueError):
    """Invalid query or map input."""


@dataclass(frozen=True)
class LocalizationQuery:
    """A sequence of observed activities with their true cells (for scoring)."""

    activities: tuple[int, ...]
    true_cells: tuple[tuple[int, int], ...]
    k_max: int = 1

    def __post_init__(self):
        if not self.activities:
            raise LocalizationError("activity sequence must be non-empty")
        if len(self.activities) != len(self.true_cells):
            raise LocalizationError("activities and true_cells must align")
        if self.k_max < 1:
            raise LocalizationError("k_max must be >= 1")


@dataclass
class DiscrepancyCurve:
    """Mean spatial discrepancy (grid cells) of the top-K guesses."""

    k_values: np.ndarray
    per_activity: dict[int, np.ndarray]
    aggregate: np.ndarray


def rank_locations(
    am_scene: np.ndarray, activity: int, grid_shape: tuple[int, int]
) -> list[tuple[int, int]]:
    """Cells sorted by descending score; ties break in row-major order."""
    if not 0 <= activity < am_scene.shape[1]:
        raise LocalizationError(f"activity index {activity} out of range")
    width, height = grid_shape
    if am_scene.shape[0] != width * height:
        raise LocalizationError(
            f"map has {am_scene.shape[0]} rows, grid needs {width * height}"
        )
    order = np.argsort(-am_scene[:, activity], kind="stable")
    return [(int(r) // height, int(r) % height) for r in order]


def discrepancy_curve(
    am_scene: np.ndarray,
    grid_shape: tuple[int, int],
    queries: Sequence[LocalizationQuery],
    k_max: Optional[int] = None,
) -> DiscrepancyCurve:
    """Per-K minimum distance from the ranked guesses to each true cell,
    averaged over query steps; non-increasing in K by construction."""
    if not queries:
        raise LocalizationError("empty query set")
    if k_max is None:
        k_max = max(q.k_max for q in queries)
    k_max = min(k_max, am_scene.shape[0])
    rank_cache: dict[int, np.ndarray] = {}
    per_act: dict[int, list[np.ndarray]] = {}
    for query in queries:
        for activity, true_cell in zip(query.activities, query.true_cells):
            i, j = true_cell
            if not (0 <= i < grid_shape[0] and 0 <= j < grid_shape[1]):
                raise LocalizationError(f"true cell {true_cell} outside grid")
            if activity not in rank_cache:
                ranked = np.array(rank_locations(am_scene, activity, grid_shape), dtype=float)
                rank_cache[activity] = ranked
            ranked = rank_cache[activity][:k_max]
            dists = np.hypot(ranked[:, 0] - i, ranked[:, 1] - j)
            per_act.setdefault(activity, []).append(np.minimum.accumulate(dists))
    per_activity = {a: np.mean(np.stack(v), axis=0) for a, v in sorted(per_act.items())}
    all_curves = [c for v in per_act.values() for c in v]
    return DiscrepancyCurve(
        k_values=np.arange(1, k_max + 1),
        per_activity=per_activity,
        aggregate=np.mean(np.stack(all_curves), axis=0),
    )
