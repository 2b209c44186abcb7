"""Reusable experiment regimes: single fits, novel-scene transfer,
demonstration-fraction sweeps, joint-versus-single fitting, and the
localization study."""

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from actionmaps.baselines import augmented_wnmf, detection_action_map
from actionmaps.evaluation import (
    EvalParams,
    EvalReport,
    GridSpec,
    ScoreResult,
    pose_views,
    run_parameter_grid,
    score_action_map,
)
from actionmaps.localization import DiscrepancyCurve, LocalizationQuery, discrepancy_curve
from actionmaps.sideinfo import GramBasis, KernelConfig
from actionmaps.solver import (
    FitResult,
    SolverParams,
    build_bundle,
    fit,
    normalize_action_map,
    predict,
)


def fit_action_map(
    dataset,
    kernel: KernelConfig,
    solver: SolverParams,
    observed_scene_ids: Optional[set[str]] = None,
    gram=None,
) -> tuple[np.ndarray, FitResult]:
    """Fit the regularized model on a dataset; returns the normalized map."""
    index = dataset.index()
    bundle = build_bundle(dataset.scenes, index, observed_scene_ids)
    if gram is None:
        gram = GramBasis(
            dataset.location_features(), kernel.chi2_epsilon, kernel.max_dense
        ).gram(kernel)
    result = fit(bundle, gram, None, solver)
    return normalize_action_map(predict(result.factors)), result


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
    """Fit with zero target demonstrations and evaluate on the targets."""
    observed = set(source_ids)
    index = dataset.index()
    views = pose_views(dataset.scenes, index, eval_params, target_ids)
    det_am = normalize_action_map(
        detection_action_map(dataset.stacked_object_scores(), dataset.catmap)
    )
    det = score_action_map(views, det_am)

    bundle = build_bundle(dataset.scenes, index, observed)
    nmf_am = augmented_wnmf(
        bundle,
        dataset.stacked_scene_scores(),
        dataset.stacked_object_scores(),
        replace(solver, seed=base_seed),
        dataset.explored_rows(),
    )
    nmf = score_action_map(views, nmf_am)

    grid = run_parameter_grid(
        dataset,
        grid_spec,
        variants,
        base_seed=base_seed + 1,
        solver=solver,
        kernel=kernel,
        eval_params=eval_params,
        scene_ids=target_ids,
        observed_scene_ids=observed,
    )
    return TransferReport(baselines={"Det.": det, "NMF": nmf}, grid=grid)


def run_elapse(
    dataset,
    fractions: Sequence[float],
    kernel: KernelConfig = KernelConfig(),
    solver: SolverParams = SolverParams(),
    eval_params: EvalParams = EvalParams(),
    subset_seed: int = 0,
) -> list[tuple[float, ScoreResult]]:
    """Sweep prefix-consistent demonstration fractions and re-fit each time.

    Subsets keep every scene's poses and labels, so one set of pose views
    scores every fraction."""
    views = pose_views(dataset.scenes, dataset.index(), eval_params)
    gram = GramBasis(
        dataset.location_features(), kernel.chi2_epsilon, kernel.max_dense
    ).gram(kernel)
    out = []
    for fraction in fractions:
        ds = dataset.with_demo_fraction(fraction, subset_seed)
        am, _ = fit_action_map(ds, kernel, solver, gram=gram)
        out.append((fraction, score_action_map(views, am)))
    return out


def run_joint_vs_single(
    dataset,
    kernel: KernelConfig = KernelConfig(),
    solver: SolverParams = SolverParams(),
    eval_params: EvalParams = EvalParams(),
) -> dict[str, tuple[ScoreResult, ScoreResult]]:
    """Per scene: (joint fit over all scenes, fit on that scene alone)."""
    from actionmaps.synthetic import GeneratedDataset

    joint_am, _ = fit_action_map(dataset, kernel, solver)
    index = dataset.index()
    out = {}
    for scene in dataset.scenes:
        sid = scene.scene_id
        joint = score_action_map(
            pose_views(dataset.scenes, index, eval_params, [sid]), joint_am
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
            pose_views(single_ds.scenes, single_ds.index(), eval_params), single_am
        )
        out[sid] = (joint, single)
    return out


def localization_queries(scene, k_max: int) -> list[LocalizationQuery]:
    """One single-step query per labelled (cell, activity) pair."""
    queries = []
    for cell, acts in scene.labelled_cells():
        for a in acts:
            queries.append(
                LocalizationQuery(activities=(a,), true_cells=(cell,), k_max=k_max)
            )
    return queries


def run_localization(dataset, scene_id: str, am_norm: np.ndarray, k_max: int) -> DiscrepancyCurve:
    """Discrepancy curve over all labelled cells of one scene."""
    scene = dataset.scene(scene_id)
    rows = dataset.index().rows_of(scene_id)
    queries = localization_queries(scene, k_max)
    return discrepancy_curve(
        am_norm[rows], (scene.width, scene.height), queries, k_max
    )


def guesses_to_reach(curve_values: np.ndarray, threshold: float) -> int:
    """Smallest K with mean discrepancy below threshold (len+1 if never)."""
    below = np.nonzero(curve_values < threshold)[0]
    return int(below[0]) + 1 if below.size else len(curve_values) + 1
