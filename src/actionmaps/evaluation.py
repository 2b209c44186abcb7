"""Per-image scoring of action maps via view triangles and threshold-swept F1."""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from actionmaps.scene import GlobalIndex, GridPose, check_field_types, grid_coords

SUMMARY_METRICS = ("w_max_f1", "w_mean_f1", "max_f1", "mean_f1")


class EvaluationError(ValueError):
    """Invalid evaluation input."""


@dataclass(frozen=True)
class ViewTriangle:
    """Isoceles wedge of viewable space in front of a camera."""

    apex: tuple[float, float]
    heading: tuple[float, float]
    fov_deg: float = 60.0
    range_cells: float = 6.0

    def __post_init__(self):
        if not 0.0 < self.fov_deg < 180.0:
            raise EvaluationError(f"fov must be in (0, 180), got {self.fov_deg}")
        # written so that NaN fails: every comparison with NaN is False
        if not 0 < self.range_cells < math.inf:
            raise EvaluationError(f"range must be positive and finite, got {self.range_cells}")
        norm = float(np.hypot(*self.heading))
        if not abs(norm - 1.0) <= 1e-6:
            raise EvaluationError(f"heading must be a unit vector, norm={norm}")

    def vertices(self) -> np.ndarray:
        half = np.radians(self.fov_deg / 2.0)
        h = np.asarray(self.heading, dtype=float)
        out = [np.asarray(self.apex, dtype=float)]
        for sign in (1.0, -1.0):
            c, s = np.cos(sign * half), np.sin(sign * half)
            rot = np.array([c * h[0] - s * h[1], s * h[0] + c * h[1]])
            out.append(out[0] + self.range_cells * rot)
        return np.stack(out)


def cells_in_triangle(tri: ViewTriangle, grid_shape: tuple[int, int]) -> np.ndarray:
    """Ascending rows of the cells whose centers lie inside the triangle."""
    verts = tri.vertices()
    # orient the vertex loop counter-clockwise for uniform half-plane tests
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    if d1[0] * d2[1] - d1[1] * d2[0] < 0:
        verts = verts[[0, 2, 1]]
    centers = grid_coords(*grid_shape) + 0.5
    inside = np.ones(centers.shape[0], dtype=bool)
    for k in range(3):
        a, b = verts[k], verts[(k + 1) % 3]
        cross = (b[0] - a[0]) * (centers[:, 1] - a[1]) - (b[1] - a[1]) * (
            centers[:, 0] - a[0]
        )
        inside &= cross >= -1e-9
    return np.flatnonzero(inside)


def image_scores(am_scene: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Mean of the (normalized) action map over the view triangle's cell rows."""
    if len(rows) == 0:
        return np.zeros(am_scene.shape[1])
    return am_scene[rows].mean(axis=0)


def image_gt(labels_scene: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Per-activity bit: 1 iff any of the view triangle's cell rows carries the label."""
    return labels_scene[rows].any(axis=0)


def f1_sweep(
    scores: np.ndarray, gt: np.ndarray, n_thresholds: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Max and mean F1 per activity over evenly spaced thresholds.

    Thresholds are k/(n+1) for k = 1..n; F1 is 0 where precision + recall
    is 0. scores is (n_images, A) in [0, 1], gt a boolean array of the same
    shape.
    """
    scores = np.asarray(scores, dtype=float)
    gt = np.asarray(gt, dtype=bool)
    if scores.ndim != 2 or scores.shape != gt.shape:
        raise EvaluationError(f"shape mismatch: scores {scores.shape}, gt {gt.shape}")
    if scores.shape[0] == 0:
        raise EvaluationError("need at least one image")
    # written so that NaN fails: every comparison with NaN is False
    if not (scores.min() >= -1e-9 and scores.max() <= 1.0 + 1e-9):
        raise EvaluationError("scores must lie in [0, 1]")
    thresholds = np.arange(1, n_thresholds + 1) / (n_thresholds + 1)
    pred = scores[None, :, :] >= thresholds[:, None, None]  # (T, N, A)
    pos = gt[None, :, :]
    tp = (pred & pos).sum(axis=1).astype(float)
    fp = (pred & ~pos).sum(axis=1).astype(float)
    fn = (~pred & pos).sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        rec = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(prec + rec > 0, 2.0 * prec * rec / (prec + rec), 0.0)
    return f1.max(axis=0), f1.mean(axis=0)


def aggregate(per_activity_f1: np.ndarray, gt_counts: np.ndarray) -> tuple[float, float]:
    """(weighted, unweighted) average of per-activity F1 scores.

    Weights are the normalized ground-truth class counts over the images.
    """
    f1 = np.asarray(per_activity_f1, dtype=float)
    counts = np.asarray(gt_counts, dtype=float)
    # written so that NaN fails: every comparison with NaN is False
    if not ((counts >= 0) & (counts < math.inf)).all():
        raise EvaluationError("class counts must be finite and >= 0")
    total = counts.sum()
    if total == 0:
        raise EvaluationError("all ground-truth class counts are zero")
    return float((counts / total) @ f1), float(f1.mean())


@dataclass(frozen=True)
class EvalParams:
    fov_deg: float = 60.0
    range_cells: float = 6.0
    n_thresholds: int = 100

    def __post_init__(self):
        check_field_types(self, EvaluationError)
        if not self.n_thresholds >= 1:
            raise EvaluationError(f"need at least one threshold, got {self.n_thresholds}")


@dataclass
class ScoreResult:
    """Summary metrics of one evaluated action map."""

    w_max_f1: float
    w_mean_f1: float
    max_f1: float
    mean_f1: float
    per_activity_max: np.ndarray
    per_activity_mean: np.ndarray
    gt_counts: np.ndarray

    def summary(self) -> dict[str, float]:
        return {
            "w_max_f1": self.w_max_f1,
            "w_mean_f1": self.w_mean_f1,
            "max_f1": self.max_f1,
            "mean_f1": self.mean_f1,
        }


@dataclass(frozen=True, eq=False)
class PoseViews:
    """What scoring needs of the camera poses, independent of any map.

    rows[p] holds the global row indices of pose p's view triangle, gt[p] is
    that view's ground truth (P, A), and n_rows is the row count of the index
    the rows refer to. Build it once with pose_views and score any number of
    action maps against it.
    """

    rows: tuple[np.ndarray, ...]
    gt: np.ndarray
    params: EvalParams
    n_rows: int


def view_rows(pose: GridPose, grid_shape: tuple[int, int], params: EvalParams) -> np.ndarray:
    """Ascending rows of the cells a camera pose's view triangle covers."""
    tri = ViewTriangle(pose.position, pose.heading, params.fov_deg, params.range_cells)
    return cells_in_triangle(tri, grid_shape)


def pose_views(
    index: GlobalIndex,
    params: EvalParams = EvalParams(),
    scene_ids: Optional[Sequence[str]] = None,
) -> PoseViews:
    """Rasterize each camera pose's view triangle once, scene by scene in
    index order, keeping the scenes in scene_ids (all when None); refuses
    an id that is not in the index."""
    wanted = None if scene_ids is None else {index.scene(sid).scene_id for sid in scene_ids}
    all_rows, all_gt = [], []
    for scene in index.scenes:
        if wanted is not None and scene.scene_id not in wanted:
            continue
        offset = index.offsets[scene.scene_id]
        for pose in scene.poses:
            view = view_rows(pose, (scene.width, scene.height), params)
            all_rows.append(offset + view)
            all_gt.append(image_gt(scene.labels, view))
    if not all_rows:
        raise EvaluationError("no camera poses found for evaluation")
    return PoseViews(tuple(all_rows), np.stack(all_gt), params, index.total_rows)


def score_action_map(views: PoseViews, am_norm: np.ndarray) -> ScoreResult:
    """Evaluate a normalized action map against the labelled camera poses.

    Each pose's score is am_norm[rows].mean(axis=0), not a summed incidence
    product: another summation order would change the last bits of the F1
    values.
    """
    if am_norm.ndim != 2 or am_norm.shape[0] != views.n_rows:
        raise EvaluationError(
            f"action map has shape {am_norm.shape}, expected {views.n_rows} rows"
        )
    scores = np.stack([image_scores(am_norm, rows) for rows in views.rows])
    gt = views.gt
    max_f1, mean_f1 = f1_sweep(scores, gt, views.params.n_thresholds)
    counts = gt.sum(axis=0)
    w_max, u_max = aggregate(max_f1, counts)
    w_mean, u_mean = aggregate(mean_f1, counts)
    return ScoreResult(
        w_max_f1=w_max,
        w_mean_f1=w_mean,
        max_f1=u_max,
        mean_f1=u_mean,
        per_activity_max=max_f1,
        per_activity_mean=mean_f1,
        gt_counts=counts,
    )
