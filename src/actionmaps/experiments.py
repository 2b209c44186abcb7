"""Fit-and-score pipelines: single fits, the parameter grid, novel-scene
transfer, demonstration-fraction sweeps, joint-versus-single fitting, and the
localization study."""

from dataclasses import dataclass, replace
from itertools import product
from typing import Optional, Sequence

import numpy as np

from actionmaps.baselines import augmented_wnmf, detection_action_map
from actionmaps.evaluation import (
    SUMMARY_METRICS,
    EvalParams,
    PoseViews,
    ScoreResult,
    pose_views,
    score_action_map,
)
from actionmaps.localization import DiscrepancyCurve, discrepancy_curve
from actionmaps.sideinfo import VARIANTS, GramBasis, KernelConfig, gram_key
from actionmaps.solver import (
    ActionMatrixBundle,
    Cohort,
    FitResult,
    SolverParams,
    build_bundle,
    fit,
    normalize_action_map,
    predict,
)


def fit_action_map(
    dataset, kernel: KernelConfig, solver: SolverParams
) -> tuple[np.ndarray, FitResult]:
    """Fit the regularized model on a dataset; returns the normalized map."""
    bundle = build_bundle(dataset.scenes, dataset.index())
    gram = GramBasis(dataset.location_features(), floor=kernel).gram(kernel)
    result = fit(bundle, gram, params=solver)
    return normalize_action_map(predict(result.factors)), result


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid swept by the harness; gamma is the chi-squared bandwidth."""

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
    variants: Sequence[str] = VARIANTS,
    base_seed: int = 0,
    solver: SolverParams = SolverParams(),
    kernel: KernelConfig = KernelConfig(),
    eval_params: EvalParams = EvalParams(),
) -> EvalReport:
    """One fit+eval per parameter tuple per variant, on every scene.

    Run failures from invalid input (ValueError, the base of every package
    error) or a non-finite update (RuntimeError) are recorded on their rows
    rather than raised; anything else, such as MemoryError, propagates.
    Deterministic given base_seed: run k uses seed base_seed + k.
    """
    index = dataset.index()
    views = pose_views(index, eval_params)
    bundle = build_bundle(dataset.scenes, index)
    return _run_grid(dataset, views, bundle, grid_spec, variants, base_seed, solver, kernel)


def _run_grid(
    dataset,
    views: PoseViews,
    bundle: ActionMatrixBundle,
    grid_spec: GridSpec,
    variants: Sequence[str],
    base_seed: int,
    solver: SolverParams,
    kernel: KernelConfig,
) -> EvalReport:
    """The grid loop of run_parameter_grid, on a given bundle and views.

    Each grid position k gets its row, with seed base_seed + k, and every
    row is validated first. The basis floor is the kernel at the smallest
    gamma of the rows that validated, so a rejected setting fails only its
    own rows; when no row validates, no basis is built. Runs are grouped by
    the Gram they need (see sideinfo.gram_key), in order of first
    appearance, and each group shares one Gram: at most one is alive at a
    time, and after a failed build the group's next run builds again. The
    runs a Gram serves form one solver Cohort, fitted in lockstep by the
    first of their fit() calls.
    """
    rows = [
        GridRow(variant, *t, base_seed + k, None)
        for k, (variant, t) in enumerate(product(variants, grid_spec.tuples()))
    ]
    groups: dict[tuple, list[tuple[GridRow, KernelConfig, SolverParams]]] = {}
    for row in rows:
        try:
            cfg = replace(kernel, alpha=row.alpha, gamma=row.gamma, variant=row.variant)
            params = replace(solver, lam=row.lam, seed=row.seed)
        except ValueError as exc:  # recorded, not fatal
            row.error = str(exc)
            continue
        groups.setdefault(gram_key(cfg), []).append((row, cfg, params))
    if groups:
        gamma = min(cfg.gamma for group in groups.values() for _, cfg, _ in group)
        basis = GramBasis(dataset.location_features(), floor=replace(kernel, gamma=gamma))
    for group in groups.values():
        gram = cohort = None  # release the last group's Gram before building this one
        for j, (row, cfg, params) in enumerate(group):
            try:
                if gram is None:
                    gram = basis.gram(cfg)
                    cohort = Cohort(gram, [(bundle, p) for _, _, p in group[j:]])
                result = fit(bundle, gram, params=params, cohort=cohort)
                row.scores = score_action_map(views, normalize_action_map(predict(result.factors)))
            except (ValueError, RuntimeError) as exc:  # recorded, not fatal
                row.error = str(exc)
    return EvalReport(rows)


@dataclass
class TransferReport:
    """Novel-scene comparison: single-setting baselines plus the grid report
    of the kernel variants, all scored on the target scenes only."""

    baselines: dict[str, ScoreResult]
    grid: EvalReport


def run_transfer(
    dataset,
    source_ids: Sequence[str],
    target_ids: Sequence[str],
    grid_spec: GridSpec = GridSpec(),
    variants: Sequence[str] = ("SO", "SP", "SOP"),
    solver: SolverParams = SolverParams(),
    kernel: KernelConfig = KernelConfig(),
    eval_params: EvalParams = EvalParams(),
    base_seed: int = 0,
) -> TransferReport:
    """Fit with zero target demonstrations and evaluate on the targets.

    The baselines and the kernel grid share one bundle and one set of pose
    views. Refuses an unknown scene id, then an empty source or target list
    and a scene in both: the fit would then see no demonstrations, or the
    demonstrations of a scene it is scored on as novel.

    The kernel grid runs first and the Det. and NMF baselines after it, so
    no baseline array or NMF working set is resident under a Gram, the
    largest allocation of the run. The baselines need no Gram and the NMF
    fit draws its own seed (base_seed; the grid rows take base_seed + 1
    onward), so the order changes no output."""
    index = dataset.index()
    for sid in (*source_ids, *target_ids):
        index.scene(sid)  # raises SceneError for an unknown id
    given = f"source scenes {list(source_ids)}, target scenes {list(target_ids)}"
    if not source_ids or not target_ids:
        raise ValueError(f"transfer needs at least one source and one target scene; got {given}")
    shared = sorted(set(source_ids) & set(target_ids))
    if shared:
        raise ValueError(f"transfer targets must be novel scenes, but {shared} are also sources; "
                         f"got {given}")
    nmf_params = replace(solver, seed=base_seed)  # a bad seed fails before the grid
    views = pose_views(index, eval_params, target_ids)
    bundle = build_bundle(dataset.scenes, index, set(source_ids))
    grid = _run_grid(
        dataset, views, bundle, grid_spec, variants, base_seed + 1, solver, kernel
    )

    det_am = normalize_action_map(
        detection_action_map(dataset.stacked_object_scores(), dataset.catmap)
    )
    det = score_action_map(views, det_am)
    nmf_am = augmented_wnmf(
        bundle,
        dataset.stacked_scene_scores(),
        dataset.stacked_object_scores(),
        nmf_params,
        dataset.stacked_explored(),
    )
    nmf = score_action_map(views, nmf_am)
    return TransferReport(baselines={"Det.": det, "NMF": nmf}, grid=grid)


def run_elapse(
    dataset,
    fractions: Sequence[float],
    kernel: KernelConfig = KernelConfig(),
    solver: SolverParams = SolverParams(),
    eval_params: EvalParams = EvalParams(),
    subset_seed: int = 0,
) -> list[tuple[float, ScoreResult]]:
    """Fit prefix-consistent demonstration fractions as one solver Cohort.

    Subsets keep every scene's poses and labels, so one set of pose views
    scores every fraction, and their bundles share one Gram. Every subset is
    drawn first, so a bad fraction is refused before any basis or fit."""
    subsets = [dataset.with_demo_fraction(fraction, subset_seed) for fraction in fractions]
    views = pose_views(dataset.index(), eval_params)
    bundles = [build_bundle(ds.scenes, ds.index()) for ds in subsets]
    gram = GramBasis(dataset.location_features(), floor=kernel).gram(kernel)
    cohort = Cohort(gram, [(bundle, solver) for bundle in bundles])
    out = []
    for fraction, bundle in zip(fractions, bundles):
        am = normalize_action_map(predict(fit(bundle, gram, params=solver, cohort=cohort).factors))
        out.append((fraction, score_action_map(views, am)))
    return out


def run_joint_vs_single(
    dataset,
    kernel: KernelConfig = KernelConfig(),
    solver: SolverParams = SolverParams(),
    eval_params: EvalParams = EvalParams(),
) -> dict[str, tuple[ScoreResult, ScoreResult]]:
    """Per scene: (joint fit over all scenes, fit on that scene alone)."""
    from actionmaps.fileio import GeneratedDataset  # fileio imports this module

    joint_am, _ = fit_action_map(dataset, kernel, solver)
    index = dataset.index()
    out = {}
    for scene in dataset.scenes:
        sid = scene.scene_id
        joint = score_action_map(
            pose_views(index, eval_params, [sid]), joint_am
        )
        single_ds = GeneratedDataset(
            scenes=[scene],
            features={sid: dataset.features[sid]},
            catmap=dataset.catmap,
            class_names=dataset.class_names,
            category_names=dataset.category_names,
        )
        single_am, _ = fit_action_map(single_ds, kernel, solver)
        single = score_action_map(
            pose_views(single_ds.index(), eval_params), single_am
        )
        out[sid] = (joint, single)
    return out


def run_localization(dataset, scene_id: str, am_norm: np.ndarray, k_max: int) -> DiscrepancyCurve:
    """Discrepancy curve over all labelled cells of one scene."""
    index = dataset.index()
    return discrepancy_curve(am_norm[index.rows_of(scene_id)], index.scene(scene_id), k_max)
