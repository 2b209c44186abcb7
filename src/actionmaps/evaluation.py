"""Per-image scoring of action maps via view triangles, threshold-swept F1,
and the parameter-grid harness."""

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from actionmaps.scene import GlobalIndex, SceneGrid
from actionmaps.sideinfo import GramBasis, KernelConfig
from actionmaps.solver import SolverParams, build_bundle, fit, normalize_action_map, predict

SUMMARY_METRICS = ("w_max_f1", "w_mean_f1", "max_f1", "mean_f1")
SUMMARY_HEADERS = ("W. Max F1", "W. Mean F1", "Max F1", "Mean F1")


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
        if self.range_cells <= 0:
            raise EvaluationError(f"range must be positive, got {self.range_cells}")
        norm = float(np.hypot(*self.heading))
        if abs(norm - 1.0) > 1e-6:
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


def cells_in_triangle(tri: ViewTriangle, grid_shape: tuple[int, int]) -> list[tuple[int, int]]:
    """Cells whose centers lie inside the triangle, in row-major order."""
    width, height = grid_shape
    verts = tri.vertices()
    # orient the vertex loop counter-clockwise for uniform half-plane tests
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    if d1[0] * d2[1] - d1[1] * d2[0] < 0:
        verts = verts[[0, 2, 1]]
    ii, jj = np.meshgrid(np.arange(width), np.arange(height), indexing="ij")
    centers = np.stack([ii.reshape(-1) + 0.5, jj.reshape(-1) + 0.5], axis=1)
    inside = np.ones(centers.shape[0], dtype=bool)
    for k in range(3):
        a, b = verts[k], verts[(k + 1) % 3]
        cross = (b[0] - a[0]) * (centers[:, 1] - a[1]) - (b[1] - a[1]) * (
            centers[:, 0] - a[0]
        )
        inside &= cross >= -1e-9
    rows = np.nonzero(inside)[0]
    return [(int(r) // height, int(r) % height) for r in rows]


def image_scores(am_scene: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Mean of the (normalized) action map over the view triangle's cell rows."""
    if len(rows) == 0:
        return np.zeros(am_scene.shape[1])
    return am_scene[rows].mean(axis=0)


def image_gt(labels_scene: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Per-activity bit: 1 iff any of the view triangle's cell rows carries the label."""
    if len(rows) == 0:
        return np.zeros(labels_scene.shape[1], dtype=bool)
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
    if scores.min() < -1e-9 or scores.max() > 1.0 + 1e-9:
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
    if (counts < 0).any():
        raise EvaluationError("class counts must be >= 0")
    total = counts.sum()
    if total == 0:
        raise EvaluationError("all ground-truth class counts are zero")
    return float((counts / total) @ f1), float(f1.mean())


@dataclass(frozen=True)
class EvalParams:
    fov_deg: float = 60.0
    range_cells: float = 6.0
    n_thresholds: int = 100


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


def pose_views(
    scenes: Sequence[SceneGrid],
    index: GlobalIndex,
    params: EvalParams = EvalParams(),
    scene_ids: Optional[Sequence[str]] = None,
) -> PoseViews:
    """Rasterize each camera pose's view triangle once, scene by scene in
    the given order, keeping the scenes in scene_ids (all when None)."""
    wanted = set(scene_ids) if scene_ids is not None else None
    all_rows, all_gt = [], []
    for scene in scenes:
        if wanted is not None and scene.scene_id not in wanted:
            continue
        offset = index.rows_of(scene.scene_id).start
        labels = scene.label_matrix()
        shape = (scene.width, scene.height)
        for pose in scene.poses:
            tri = ViewTriangle(
                apex=pose.position,
                heading=pose.heading,
                fov_deg=params.fov_deg,
                range_cells=params.range_cells,
            )
            view = np.array(
                [i * scene.height + j for i, j in cells_in_triangle(tri, shape)],
                dtype=np.intp,
            )
            all_rows.append(offset + view)
            all_gt.append(image_gt(labels, view))
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


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid swept by the harness (one gamma drives both chi-squared
    kernels, matching how the sweep is reported)."""

    alphas: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    lambdas: tuple[float, ...] = (1e-3, 1e-2)
    gammas: tuple[float, ...] = (100.0, 1000.0)

    def tuples(self) -> list[tuple[float, float, float]]:
        return [(a, l, g) for a in self.alphas for l in self.lambdas for g in self.gammas]


@dataclass
class GridRow:
    variant: str
    alpha: float
    lam: float
    gamma: float
    seed: int
    scores: Optional[ScoreResult]
    error: str = ""


@dataclass
class EvalReport:
    """Per-run breakdown plus cross-run summary statistics per variant."""

    rows: list[GridRow]
    activities: tuple[str, ...]

    def summaries(self) -> dict[str, dict[str, tuple[float, float, float]]]:
        """variant -> metric -> (max, mean, stdev) across successful runs."""
        out: dict[str, dict[str, tuple[float, float, float]]] = {}
        for variant in dict.fromkeys(row.variant for row in self.rows):
            runs = [r.scores.summary() for r in self.rows if r.variant == variant and r.scores]
            if not runs:
                continue
            out[variant] = {}
            for metric in SUMMARY_METRICS:
                vals = np.array([run[metric] for run in runs])
                out[variant][metric] = (
                    float(vals.max()),
                    float(vals.mean()),
                    float(vals.std()),
                )
        return out


def run_parameter_grid(
    dataset,
    grid_spec: GridSpec,
    variants: Sequence[str] = ("S", "SO", "SP", "SOP"),
    base_seed: int = 0,
    solver: SolverParams = SolverParams(),
    kernel: KernelConfig = KernelConfig(),
    eval_params: EvalParams = EvalParams(),
    scene_ids: Optional[Sequence[str]] = None,
    observed_scene_ids: Optional[set[str]] = None,
) -> EvalReport:
    """One fit+eval per parameter tuple per variant.

    Run failures from invalid input (ValueError, the base of every package
    error) or a non-finite update (RuntimeError) are recorded on their rows
    rather than raised; anything else, such as MemoryError, propagates.
    Deterministic given base_seed: run k uses seed base_seed + k.
    Consecutive runs with the same kernel config share one Gram matrix,
    and at most one Gram is alive at a time; every run is scored against
    one set of pose views.
    """
    index = dataset.index()
    views = pose_views(dataset.scenes, index, eval_params, scene_ids)
    bundle = build_bundle(dataset.scenes, index, observed_scene_ids)
    basis = GramBasis(dataset.location_features(), kernel.chi2_epsilon, kernel.max_dense)
    rows: list[GridRow] = []
    run_idx = 0
    gram_cfg, gram = None, None
    for variant in variants:
        for alpha, lam, gamma in grid_spec.tuples():
            seed = base_seed + run_idx
            run_idx += 1
            try:
                cfg = replace(kernel, alpha=alpha, gamma_p=gamma, gamma_o=gamma, variant=variant)
                if cfg != gram_cfg:
                    # drop the old Gram before building; a failed build leaves none cached
                    gram_cfg, gram = None, None
                    gram = basis.gram(cfg)
                    gram_cfg = cfg
                result = fit(bundle, gram, None, replace(solver, lam=lam, seed=seed))
                am = normalize_action_map(predict(result.factors))
                scores = score_action_map(views, am)
                rows.append(GridRow(variant, alpha, lam, gamma, seed, scores))
            except (ValueError, RuntimeError) as exc:  # recorded, not fatal
                rows.append(GridRow(variant, alpha, lam, gamma, seed, None, str(exc)))
    return EvalReport(rows=rows, activities=index.vocabulary.names)
