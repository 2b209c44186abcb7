import math

import numpy as np
import pytest

from actionmaps.evaluation import (
    EvalParams,
    EvaluationError,
    ViewTriangle,
    aggregate,
    cells_in_triangle,
    f1_sweep,
    image_gt,
    image_scores,
    pose_views,
    score_action_map,
)
from actionmaps.experiments import GridSpec, run_parameter_grid
from actionmaps.scene import GlobalIndex, GridPose, SceneGrid


def barycentric_inside(point, verts, eps=1e-9):
    a, b, c = verts
    det = (b[1] - c[1]) * (a[0] - c[0]) + (c[0] - b[0]) * (a[1] - c[1])
    l1 = ((b[1] - c[1]) * (point[0] - c[0]) + (c[0] - b[0]) * (point[1] - c[1])) / det
    l2 = ((c[1] - a[1]) * (point[0] - c[0]) + (a[0] - c[0]) * (point[1] - c[1])) / det
    l3 = 1.0 - l1 - l2
    return l1 >= -eps and l2 >= -eps and l3 >= -eps


def f1_sweep_oracle(scores, gt, n_thresholds=100):
    """Brute-force confusion-matrix computation per threshold."""
    n, a = scores.shape
    maxes, means = [], []
    for act in range(a):
        f1s = []
        for k in range(1, n_thresholds + 1):
            t = k / (n_thresholds + 1)
            tp = fp = fn = 0
            for img in range(n):
                pred = scores[img, act] >= t
                if pred and gt[img, act]:
                    tp += 1
                elif pred and not gt[img, act]:
                    fp += 1
                elif not pred and gt[img, act]:
                    fn += 1
            prec = tp / (tp + fp) if tp + fp > 0 else 0.0
            rec = tp / (tp + fn) if tp + fn > 0 else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
        maxes.append(max(f1s))
        means.append(sum(f1s) / len(f1s))
    return np.array(maxes), np.array(means)


# -- triangles ----------------------------------------------------------------


def test_triangle_degenerate_range():
    tri = ViewTriangle(apex=(1.5, 1.5), heading=(1.0, 0.0), fov_deg=60, range_cells=0.5)
    rows = cells_in_triangle(tri, (4, 4))
    assert set(rows.tolist()) <= {1 * 4 + 1}


def test_triangle_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        heading = rng.normal(size=2)
        heading /= np.hypot(*heading)
        tri = ViewTriangle(
            apex=tuple(rng.uniform(0, 8, 2)),
            heading=tuple(heading),
            fov_deg=float(rng.uniform(20, 150)),
            range_cells=float(rng.uniform(1, 6)),
        )
        got = cells_in_triangle(tri, (8, 8))
        verts = tri.vertices()
        want = [
            i * 8 + j
            for i in range(8)
            for j in range(8)
            if barycentric_inside((i + 0.5, j + 0.5), verts)
        ]
        assert got.dtype.kind == "i"
        assert got.tolist() == want  # ascending rows


def test_triangle_heading_x_fov90():
    tri = ViewTriangle(apex=(0.0, 2.5), heading=(1.0, 0.0), fov_deg=90, range_cells=3)
    got = cells_in_triangle(tri, (6, 6))
    verts = tri.vertices()
    want = [
        i * 6 + j for i in range(6) for j in range(6)
        if barycentric_inside((i + 0.5, j + 0.5), verts)
    ]
    assert got.tolist() == want


def test_triangle_outside_grid_empty():
    tri = ViewTriangle(apex=(50.0, 50.0), heading=(1.0, 0.0), fov_deg=60, range_cells=3)
    assert cells_in_triangle(tri, (4, 4)).size == 0


def test_triangle_validation():
    with pytest.raises(EvaluationError):
        ViewTriangle(apex=(0, 0), heading=(1.0, 0.0), fov_deg=200)
    with pytest.raises(EvaluationError):
        ViewTriangle(apex=(0, 0), heading=(2.0, 0.0))
    with pytest.raises(EvaluationError):
        ViewTriangle(apex=(0, 0), heading=(1.0, 0.0), range_cells=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"heading": (math.nan, math.nan)},
        {"heading": (math.nan, 0.0)},
        {"range_cells": math.nan},
    ],
    ids=["heading", "heading-x", "range"],
)
def test_triangle_rejects_nan(kwargs):
    # every comparison with NaN is False, so a check must be written to fail on it
    with pytest.raises(EvaluationError):
        ViewTriangle(**{"apex": (0, 0), "heading": (1.0, 0.0), **kwargs})


@pytest.mark.parametrize("n_thresholds", [0, -3, math.nan])
def test_eval_params_need_a_threshold(n_thresholds):
    with pytest.raises(EvaluationError, match="threshold"):
        EvalParams(n_thresholds=n_thresholds)
    assert EvalParams(n_thresholds=1).n_thresholds == 1


@pytest.mark.parametrize(
    "field, value",
    [("fov_deg", "60"), ("fov_deg", True), ("range_cells", None),
     ("n_thresholds", 2.5), ("n_thresholds", True), ("n_thresholds", "100")],
)
def test_eval_params_reject_wrong_types(field, value):
    # n_thresholds=2.5 swept the thresholds k/3.5 and True a single one, and a
    # string fov only failed once a view triangle was built
    with pytest.raises(EvaluationError, match=field):
        EvalParams(**{field: value})
    params = EvalParams(fov_deg=np.float64(70), range_cells=5, n_thresholds=np.int64(3))
    assert params.n_thresholds == 3


# -- image scores -------------------------------------------------------------


def _wedge():
    return ViewTriangle(apex=(0.1, 1.5), heading=(1.0, 0.0), fov_deg=80, range_cells=2.5)


def test_image_scores_uniform_value():
    am = np.full((9, 2), 0.37)
    assert image_scores(am, cells_in_triangle(_wedge(), (3, 3))) == pytest.approx([0.37, 0.37])


def test_image_scores_two_cell_mean():
    tri = ViewTriangle(apex=(0.0, 0.5), heading=(1.0, 0.0), fov_deg=30, range_cells=2.2)
    rows = cells_in_triangle(tri, (3, 1))
    assert rows.tolist() == [0, 1]  # cells (0, 0) and (1, 0)
    am = np.zeros((3, 1))
    am[0, 0], am[1, 0] = 0.2, 0.8
    assert image_scores(am, rows)[0] == pytest.approx(0.5)


def test_image_scores_ignore_outside_cells():
    view = cells_in_triangle(_wedge(), (3, 3))
    am = np.random.default_rng(1).uniform(0, 1, (9, 2))
    before = image_scores(am, view)
    outside = [r for r in range(9) if r not in view]
    assert outside
    am[outside] = 123.0
    assert image_scores(am, view) == pytest.approx(before)


def test_image_scores_empty_triangle_zero():
    tri = ViewTriangle(apex=(40.0, 40.0), heading=(1.0, 0.0))
    view = cells_in_triangle(tri, (3, 3))
    assert view.size == 0
    assert image_scores(np.ones((9, 2)), view) == pytest.approx([0.0, 0.0])
    assert not image_gt(np.ones((9, 2), dtype=bool), view).any()


def test_image_scores_matches_loop_oracle():
    rng = np.random.default_rng(2)
    am = rng.uniform(0, 1, (25, 3))
    tri = ViewTriangle(apex=(1.2, 2.3), heading=(0.6, 0.8), fov_deg=75, range_cells=3.5)
    rows = cells_in_triangle(tri, (5, 5))
    expected = np.mean([am[r] for r in rows], axis=0)
    assert image_scores(am, rows) == pytest.approx(expected, abs=1e-12)


def test_image_gt_any_rule():
    labels = np.zeros((9, 2), dtype=bool)
    labels[1 * 3 + 1, 0] = True
    tri = _wedge()
    rows = cells_in_triangle(tri, (3, 3))
    gt = image_gt(labels, rows)
    assert gt[0] == (1 * 3 + 1 in rows)
    assert not gt[1]


# -- F1 sweep -----------------------------------------------------------------


def test_f1_separable_scores():
    scores = np.array([[0.9], [0.9], [0.1], [0.1]])
    gt = np.array([[True], [True], [False], [False]])
    max_f1, mean_f1 = f1_sweep(scores, gt)
    assert max_f1[0] == 1.0
    assert 0 < mean_f1[0] <= 1.0


def test_f1_all_negative_gt():
    scores = np.array([[0.4], [0.6]])
    gt = np.zeros((2, 1), dtype=bool)
    max_f1, mean_f1 = f1_sweep(scores, gt)
    assert max_f1[0] == 0.0 and mean_f1[0] == 0.0


def test_f1_matches_bruteforce_on_handmade_case():
    scores = np.array(
        [
            [0.95, 0.10],
            [0.60, 0.55],
            [0.40, 0.90],
            [0.20, 0.45],
            [0.05, 0.70],
        ]
    )
    gt = np.array(
        [
            [True, False],
            [True, True],
            [False, True],
            [False, False],
            [False, True],
        ]
    )
    got_max, got_mean = f1_sweep(scores, gt)
    want_max, want_mean = f1_sweep_oracle(scores, gt)
    assert np.array_equal(got_max, want_max)
    assert np.array_equal(got_mean, want_mean)


def test_f1_random_matches_bruteforce():
    rng = np.random.default_rng(3)
    scores = rng.uniform(0, 1, (12, 3))
    gt = rng.random((12, 3)) < 0.4
    got_max, got_mean = f1_sweep(scores, gt, n_thresholds=50)
    want_max, want_mean = f1_sweep_oracle(scores, gt, n_thresholds=50)
    assert got_max == pytest.approx(want_max, abs=1e-12)
    assert got_mean == pytest.approx(want_mean, abs=1e-12)


def test_f1_bounds_and_mean_le_max():
    rng = np.random.default_rng(4)
    scores = rng.uniform(0, 1, (30, 4))
    gt = rng.random((30, 4)) < 0.5
    max_f1, mean_f1 = f1_sweep(scores, gt)
    assert (max_f1 >= 0).all() and (max_f1 <= 1).all()
    assert (mean_f1 <= max_f1 + 1e-12).all()


def test_f1_validation():
    with pytest.raises(EvaluationError):
        f1_sweep(np.zeros((0, 2)), np.zeros((0, 2), dtype=bool))
    with pytest.raises(EvaluationError):
        f1_sweep(np.full((2, 1), 1.5), np.ones((2, 1), dtype=bool))


# -- aggregation --------------------------------------------------------------


def test_aggregate_equal_counts():
    f1 = np.array([0.4, 0.8])
    weighted, unweighted = aggregate(f1, np.array([5, 5]))
    assert weighted == pytest.approx(unweighted) == pytest.approx(0.6)


def test_aggregate_weighted_example():
    weighted, unweighted = aggregate(np.array([1.0, 0.0]), np.array([3, 1]))
    assert weighted == 0.75
    assert unweighted == 0.5


def test_aggregate_all_zero_counts():
    with pytest.raises(EvaluationError):
        aggregate(np.array([0.5]), np.array([0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_f1_sweep_refuses_scores_out_of_range(bad):
    # a NaN score would sit below every threshold and count as a negative
    scores = np.array([[0.2, 0.7], [bad, 0.4]])
    with pytest.raises(EvaluationError, match="scores must lie in"):
        f1_sweep(scores, np.ones((2, 2), dtype=bool))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_aggregate_refuses_counts_out_of_range(bad):
    # a NaN count would make the weighted F1 NaN
    with pytest.raises(EvaluationError, match="class counts must be finite and >= 0"):
        aggregate(np.array([0.5, 0.5]), np.array([3.0, bad]))


# -- grid harness -------------------------------------------------------------


def test_grid_spec_has_28_tuples():
    assert len(GridSpec().tuples()) == 28


def test_run_parameter_grid_small(mini_dataset):
    from actionmaps.solver import SolverParams

    spec = GridSpec(alphas=(0.0, 0.5), lambdas=(1e-3,), gammas=(1.0,))
    report = run_parameter_grid(
        mini_dataset,
        spec,
        variants=("S", "SOP"),
        base_seed=3,
        solver=SolverParams(rank=4, max_iters=40, rel_tol=1e-4),
    )
    assert len(report.rows) == 4
    assert [r.seed for r in report.rows] == [3, 4, 5, 6]
    summaries = report.summaries()
    for variant in ("S", "SOP"):
        for metric, (mx, mean, _std) in summaries[variant].items():
            assert mx >= mean
            assert 0.0 <= mean <= 1.0


def test_run_parameter_grid_reproducible(mini_dataset):
    from actionmaps.solver import SolverParams

    spec = GridSpec(alphas=(0.5,), lambdas=(1e-3,), gammas=(1.0,))
    kwargs = dict(
        grid_spec=spec,
        variants=("SOP",),
        base_seed=11,
        solver=SolverParams(rank=4, max_iters=40, rel_tol=1e-4),
    )
    a = run_parameter_grid(mini_dataset, **kwargs)
    b = run_parameter_grid(mini_dataset, **kwargs)
    assert a.rows[0].scores.summary() == b.rows[0].scores.summary()


def test_score_action_map_perfect_map(mini_dataset):
    # the ground-truth map itself scores a perfect max F1 on labelled classes
    index = mini_dataset.index()
    labels = np.vstack([s.labels for s in mini_dataset.scenes]).astype(float)
    result = score_action_map(pose_views(index), labels)
    present = result.gt_counts > 0
    assert np.allclose(result.per_activity_max[present], 1.0)


def test_run_parameter_grid_records_invalid_alpha(mini_dataset):
    from actionmaps.solver import SolverParams

    spec = GridSpec(alphas=(1.5,), lambdas=(1e-3,), gammas=(1.0,))
    report = run_parameter_grid(
        mini_dataset, spec, variants=("SOP",), solver=SolverParams(rank=2, max_iters=5)
    )
    assert report.rows[0].scores is None
    assert "alpha" in report.rows[0].error


def test_run_parameter_grid_propagates_memory_error(mini_dataset, monkeypatch):
    from actionmaps.sideinfo import GramBasis
    from actionmaps.solver import SolverParams

    def out_of_memory(self, cfg):
        raise MemoryError("gram")

    monkeypatch.setattr(GramBasis, "gram", out_of_memory)
    spec = GridSpec(alphas=(0.5,), lambdas=(1e-3,), gammas=(1.0,))
    with pytest.raises(MemoryError):
        run_parameter_grid(
            mini_dataset, spec, variants=("SOP",), solver=SolverParams(rank=2, max_iters=5)
        )


@pytest.mark.parametrize("pipeline", ["grid", "fit", "elapse"])
def test_pipelines_refuse_dense_cap_before_building_basis(mini_dataset, monkeypatch, pipeline):
    from actionmaps import sideinfo
    from actionmaps.experiments import fit_action_map, run_elapse
    from actionmaps.sideinfo import KernelConfig, SideInfoError
    from actionmaps.solver import SolverParams

    def no_distances(*args):
        raise AssertionError("pairwise distances computed above the dense cap")

    monkeypatch.setattr(sideinfo, "_chi2_block", no_distances)
    monkeypatch.setattr(sideinfo, "MAX_DENSE_LOCATIONS", mini_dataset.index().total_rows - 1)
    kernel = KernelConfig()
    solver = SolverParams(rank=2, max_iters=5)
    spec = GridSpec(alphas=(0.5,), lambdas=(1e-3,), gammas=(1.0,))
    with pytest.raises(SideInfoError, match="cap"):
        if pipeline == "grid":
            run_parameter_grid(mini_dataset, spec, ("SOP",), solver=solver, kernel=kernel)
        elif pipeline == "fit":
            fit_action_map(mini_dataset, kernel, solver)
        else:
            run_elapse(mini_dataset, [1.0], kernel=kernel, solver=solver)


def test_run_parameter_grid_builds_one_gram_per_key(mini_dataset, monkeypatch):
    # S, and alpha 0 in any variant, share one spatial-only Gram; every other
    # config builds its own once, in order of first appearance
    from actionmaps.sideinfo import VARIANTS, GramBasis, KernelConfig
    from actionmaps.solver import SolverParams

    real_gram = GramBasis.gram
    built = []

    def counting_gram(self, cfg):
        built.append(cfg)
        return real_gram(self, cfg)

    monkeypatch.setattr(GramBasis, "gram", counting_gram)
    spec = GridSpec(alphas=(0.0, 0.5), lambdas=(1e-3, 1e-2), gammas=(1.0, 2.0))
    report = run_parameter_grid(
        mini_dataset, spec, variants=("S", "SOP"), solver=SolverParams(rank=2, max_iters=5)
    )
    assert all(not row.error for row in report.rows)
    assert built == [
        KernelConfig(alpha=0.0, gamma=1.0, variant="S"),
        KernelConfig(alpha=0.5, gamma=1.0, variant="SOP"),
        KernelConfig(alpha=0.5, gamma=2.0, variant="SOP"),
    ]
    # the default grid: 112 runs, 1 spatial Gram and 3 variants x 6 alphas x 2 gammas
    built.clear()
    report = run_parameter_grid(
        mini_dataset, GridSpec(), variants=VARIANTS, solver=SolverParams(rank=2, max_iters=1)
    )
    assert len(report.rows) == 112 and all(not row.error for row in report.rows)
    assert len(built) == 37


@pytest.mark.parametrize("tau", [1e-4, 0.0])
def test_gram_key_configs_get_equal_grams(pair_dataset, tau):
    # the two claims of gram_key: S ignores alpha and gamma, and alpha = 0
    # gives every variant the spatial-only Gram
    from actionmaps.sideinfo import VARIANTS, GramBasis, KernelConfig, gram_key

    floor = KernelConfig(gamma=100.0, tau=tau)
    basis = GramBasis(pair_dataset.location_features(), floor=floor)
    spatial = basis.gram(KernelConfig(alpha=0.0, gamma=100.0, variant="S", tau=tau))
    configs = [KernelConfig(alpha=a, gamma=g, variant="S", tau=tau)
               for a in (0.3, 1.0) for g in (100.0, 1000.0)]
    configs += [KernelConfig(alpha=0.0, gamma=g, variant=v, tau=tau)
                for v in VARIANTS[1:] for g in (100.0, 1000.0)]
    for cfg in configs:
        assert gram_key(cfg) == gram_key(KernelConfig(variant="S", tau=tau))
        gram = basis.gram(cfg)
        assert np.array_equal(gram.matrix, spatial.matrix)
        assert np.array_equal(gram.degrees, spatial.degrees)
    mixed = basis.gram(KernelConfig(alpha=0.3, gamma=100.0, variant="SOP", tau=tau))
    assert not np.array_equal(mixed.matrix, spatial.matrix)


def test_run_parameter_grid_rows_match_solo_runs(mini_dataset, monkeypatch):
    # grouped runs keep their grid position's row and seed: each row equals
    # the grid of that position alone at seed base_seed + k, and a failed
    # build fails only its own row (the next run of its group builds again)
    from actionmaps.sideinfo import GramBasis, SideInfoError
    from actionmaps.solver import SolverParams

    solver = SolverParams(rank=2, max_iters=10)
    spec = GridSpec(alphas=(0.0, 0.5, 1.5), lambdas=(1e-3,), gammas=(1.0, 2.0))
    variants = ("S", "SO", "SOP")
    real_gram = GramBasis.gram
    failures = ["transient gram failure"]  # the first build fails

    def flaky_gram(self, cfg):
        if failures:
            raise SideInfoError(failures.pop())
        return real_gram(self, cfg)

    monkeypatch.setattr(GramBasis, "gram", flaky_gram)
    rows = run_parameter_grid(mini_dataset, spec, variants, base_seed=5, solver=solver).rows
    monkeypatch.setattr(GramBasis, "gram", real_gram)
    positions = [(v, a, l, g) for v in variants for a, l, g in spec.tuples()]
    assert len(rows) == len(positions)
    assert rows[0].error == "transient gram failure"
    for k, (variant, alpha, lam, gamma) in enumerate(positions):
        row = rows[k]
        assert (row.variant, row.alpha, row.lam, row.gamma, row.seed) == (
            variant, alpha, lam, gamma, 5 + k)
        if k == 0:
            continue
        solo = run_parameter_grid(
            mini_dataset, GridSpec(alphas=(alpha,), lambdas=(lam,), gammas=(gamma,)),
            (variant,), base_seed=5 + k, solver=solver,
        ).rows[0]
        assert row.error == solo.error
        assert (row.error != "") == (alpha == 1.5)
        if not row.error:
            assert row.scores.summary() == solo.scores.summary()
            assert np.array_equal(row.scores.per_activity_max, solo.scores.per_activity_max)


def test_run_parameter_grid_failed_gram_is_not_reused(mini_dataset, monkeypatch):
    from actionmaps import experiments
    from actionmaps.sideinfo import GramBasis, KernelConfig, SideInfoError
    from actionmaps.solver import SolverParams

    real_gram, real_fit = GramBasis.gram, experiments.fit
    built, fitted = [], []
    fail_once = {0.5}

    def flaky_gram(self, cfg):
        built.append(cfg.alpha)
        if cfg.alpha in fail_once:
            fail_once.discard(cfg.alpha)
            raise SideInfoError("transient gram failure")
        return real_gram(self, cfg)

    def recording_fit(bundle, K, **kwargs):
        fitted.append(K)
        return real_fit(bundle, K, **kwargs)

    monkeypatch.setattr(GramBasis, "gram", flaky_gram)
    monkeypatch.setattr(experiments, "fit", recording_fit)
    spec = GridSpec(alphas=(0.0, 0.5), lambdas=(1e-3, 1e-2), gammas=(1.0,))
    report = run_parameter_grid(
        mini_dataset, spec, variants=("SOP",), solver=SolverParams(rank=2, max_iters=5)
    )
    assert [row.error for row in report.rows] == ["", "", "transient gram failure", ""]
    assert built == [0.0, 0.5, 0.5]
    assert fitted[0] is fitted[1]
    cfg = KernelConfig(alpha=0.5, gamma=1.0, variant="SOP")
    want = real_gram(GramBasis(mini_dataset.location_features(), cfg.chi2_epsilon), cfg)
    assert np.array_equal(fitted[2].matrix, want.matrix)
    assert not np.array_equal(fitted[2].matrix, fitted[0].matrix)


def _grid_rows(dataset, spec, monkeypatch, dense=False):
    """The rows of an all-variant grid and the floor of each basis it built;
    with dense, every basis holds every pair."""
    from actionmaps import experiments
    from actionmaps.solver import SolverParams

    real_basis, floors = experiments.GramBasis, []

    def recording_basis(features, *, floor):
        floors.append(floor)
        return real_basis(features, floor=None if dense else floor)

    monkeypatch.setattr(experiments, "GramBasis", recording_basis)
    report = run_parameter_grid(
        dataset, spec, variants=("S", "SO", "SP", "SOP"),
        solver=SolverParams(rank=2, max_iters=10),
    )
    monkeypatch.setattr(experiments, "GramBasis", real_basis)
    return report.rows, floors


def test_run_parameter_grid_floors_the_basis_at_its_smallest_gamma(pair_dataset, monkeypatch):
    # one basis serves both gammas; every row equals the row of a basis that
    # holds every pair (on the pair preset, m = 410, the floor drops pairs)
    from actionmaps.sideinfo import GramBasis

    spec = GridSpec(alphas=(0.0, 0.5), lambdas=(1e-3,), gammas=(1000.0, 100.0))
    rows, floors = _grid_rows(pair_dataset, spec, monkeypatch)
    assert [floor.gamma for floor in floors] == [100.0]
    assert floors[0].tau == 1e-4
    assert GramBasis(pair_dataset.location_features(), floor=floors[0]).rows.size
    dense, _ = _grid_rows(pair_dataset, spec, monkeypatch, dense=True)
    assert all(not row.error for row in rows)
    assert [row.scores.summary() for row in rows] == [row.scores.summary() for row in dense]


@pytest.mark.parametrize("bad", [math.inf, -1.0, math.nan])
def test_run_parameter_grid_rejected_gamma_fails_only_its_rows(pair_dataset, monkeypatch, bad):
    # the floor is the smallest gamma KernelConfig accepts, so the valid
    # gamma's rows run, and equal those of a basis that holds every pair
    spec = GridSpec(alphas=(0.5,), lambdas=(1e-3,), gammas=(bad, 100.0))
    rows, floors = _grid_rows(pair_dataset, spec, monkeypatch)
    assert [floor.gamma for floor in floors] == [100.0]
    assert [bool(row.error) for row in rows] == [True, False] * 4
    assert all("bandwidths" in row.error for row in rows[::2])
    dense, _ = _grid_rows(pair_dataset, spec, monkeypatch, dense=True)
    assert [row.scores.summary() for row in rows[1::2]] == [
        row.scores.summary() for row in dense[1::2]
    ]


def test_run_parameter_grid_with_no_accepted_gamma_builds_no_basis(pair_dataset, monkeypatch):
    # every row fails its KernelConfig check before any Gram is needed
    from actionmaps.sideinfo import KernelConfig, SideInfoError

    with pytest.raises(SideInfoError) as rejected:
        KernelConfig(gamma=math.inf)
    spec = GridSpec(gammas=(math.inf,))
    rows, floors = _grid_rows(pair_dataset, spec, monkeypatch)
    assert floors == []
    assert len(rows) == 4 * len(spec.tuples())
    assert all(row.scores is None and row.error == str(rejected.value) for row in rows)


def test_run_parameter_grid_with_no_valid_row_builds_no_basis(pair_dataset, monkeypatch):
    # the gamma is accepted, but every row fails its SolverParams check, so
    # no Gram is needed and no basis is built
    from actionmaps.solver import SolverError, SolverParams

    with pytest.raises(SolverError) as rejected:
        SolverParams(lam=-1.0)
    spec = GridSpec(alphas=(0.0, 0.5), lambdas=(-1.0,), gammas=(100.0, 1000.0))
    rows, floors = _grid_rows(pair_dataset, spec, monkeypatch)
    assert floors == []
    assert len(rows) == 4 * len(spec.tuples())
    assert all(row.scores is None and row.error == str(rejected.value) for row in rows)


# -- scoring against pose views -------------------------------------------------


def collect_image_data_oracle(scenes, index, am_norm, params=EvalParams(), scene_ids=None):
    """Per-pose scores and ground truth, rasterizing every view triangle
    again for the given map (the scoring loop before pose views existed)."""
    wanted = set(scene_ids) if scene_ids is not None else None
    all_scores, all_gt = [], []
    for scene in scenes:
        if wanted is not None and scene.scene_id not in wanted:
            continue
        am_scene = am_norm[index.rows_of(scene.scene_id)]
        for pose in scene.poses:
            tri = ViewTriangle(pose.position, pose.heading, params.fov_deg, params.range_cells)
            view = cells_in_triangle(tri, (scene.width, scene.height))
            all_scores.append(image_scores(am_scene, view))
            all_gt.append(image_gt(scene.labels, view))
    return np.stack(all_scores), np.stack(all_gt)


def _with_blind_pose(dataset):
    """The scenes, the first rebuilt with one more pose, which sees no cell."""
    first = dataset.scenes[0]
    blind = GridPose(position=(0.2, 0.2), heading=(-1.0, 0.0))
    scenes = [
        SceneGrid(
            first.scene_id, first.width, first.height, first.cell_size_m, first.vocabulary,
            first.explored, first.labels, first.demonstrations, first.poses + (blind,),
        ),
        *dataset.scenes[1:],
    ]
    return scenes, GlobalIndex(scenes)


@pytest.mark.parametrize("scene_ids", [None, ["office_b"], ["office_a", "office_b"]])
def test_score_action_map_matches_per_pose_oracle(pair_dataset, scene_ids):
    scenes, index = _with_blind_pose(pair_dataset)
    blind = scenes[0].poses[-1]
    tri = ViewTriangle(blind.position, blind.heading)
    assert cells_in_triangle(tri, (scenes[0].width, scenes[0].height)).size == 0
    params = EvalParams(fov_deg=70.0, range_cells=5.0, n_thresholds=37)
    views = pose_views(index, params, scene_ids)
    rng = np.random.default_rng(5)
    n_acts = len(index.vocabulary)
    for trial in range(20):
        am = rng.random((index.total_rows, n_acts))
        if trial % 4 == 0:
            am[rng.random(am.shape) < 0.5] = 0.0
        got = score_action_map(views, am)
        scores, gt = collect_image_data_oracle(scenes, index, am, params, scene_ids)
        max_f1, mean_f1 = f1_sweep(scores, gt, params.n_thresholds)
        assert np.array_equal(got.per_activity_max, max_f1)
        assert np.array_equal(got.per_activity_mean, mean_f1)
        assert np.array_equal(got.gt_counts, gt.sum(axis=0))
    n_poses = sum(len(s.poses) for s in scenes if scene_ids is None or s.scene_id in scene_ids)
    assert len(views.rows) == views.gt.shape[0] == n_poses


def test_score_action_map_rejects_wrong_row_count(mini_dataset):
    index = mini_dataset.index()
    views = pose_views(index)
    n_acts = len(index.vocabulary)
    for rows in (index.total_rows - 1, index.total_rows + 1):
        with pytest.raises(EvaluationError, match="rows"):
            score_action_map(views, np.zeros((rows, n_acts)))
    with pytest.raises(EvaluationError):
        score_action_map(views, np.zeros(index.total_rows))


def test_pose_views_without_poses_raise(mini_dataset):
    with pytest.raises(EvaluationError, match="no camera poses"):
        pose_views(mini_dataset.index(), scene_ids=[])


def test_pose_views_refuse_an_unknown_scene(pair_dataset):
    # an unknown id used to be skipped, so the known ones were scored alone
    from actionmaps.scene import SceneError

    with pytest.raises(SceneError, match="unknown scene 'office_typo'"):
        pose_views(pair_dataset.index(), scene_ids=["office_a", "office_typo"])


def _count_triangles(monkeypatch):
    from actionmaps import evaluation

    real, calls = evaluation.cells_in_triangle, []

    def counting(tri, shape):
        calls.append((tri, shape))
        return real(tri, shape)

    monkeypatch.setattr(evaluation, "cells_in_triangle", counting)
    return calls


def _n_poses(dataset, scene_ids=None):
    return sum(len(s.poses) for s in dataset.scenes if scene_ids is None or s.scene_id in scene_ids)


def test_run_parameter_grid_rasterizes_each_pose_once(mini_dataset, monkeypatch):
    from actionmaps.solver import SolverParams

    calls = _count_triangles(monkeypatch)
    spec = GridSpec(alphas=(0.3, 0.7), lambdas=(1e-3, 1e-2), gammas=(1.0,))
    report = run_parameter_grid(
        mini_dataset, spec, variants=("S", "SOP"), solver=SolverParams(rank=2, max_iters=5)
    )
    assert len(report.rows) == 8 and all(row.scores for row in report.rows)
    assert len(calls) == _n_poses(mini_dataset)


def test_run_transfer_rasterizes_target_poses_once_and_builds_one_bundle(
    pair_dataset, monkeypatch
):
    from actionmaps import experiments
    from actionmaps.experiments import run_transfer
    from actionmaps.solver import SolverParams

    calls = _count_triangles(monkeypatch)
    real_bundle, bundles = experiments.build_bundle, []

    def counting_bundle(*args):
        bundles.append(args)
        return real_bundle(*args)

    monkeypatch.setattr(experiments, "build_bundle", counting_bundle)
    report = run_transfer(
        pair_dataset, ["office_a"], ["office_b"],
        grid_spec=GridSpec(alphas=(0.3, 0.7), lambdas=(1e-2,), gammas=(1.0,)),
        variants=("SO", "SOP"),
        solver=SolverParams(rank=2, max_iters=5),
    )
    assert len(report.grid.rows) == 4 and set(report.baselines) == {"Det.", "NMF"}
    assert len(calls) == _n_poses(pair_dataset, ["office_b"])
    assert len(bundles) == 1


def test_run_transfer_builds_every_gram_before_the_baselines(pair_dataset, monkeypatch):
    # the baselines need no Gram, so running them after the grid keeps their
    # arrays and the NMF fit's working set from sitting under a Gram
    from actionmaps import experiments
    from actionmaps.sideinfo import GramBasis
    from actionmaps.solver import SolverParams

    calls = []

    def record(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GramBasis, "gram", record("gram", GramBasis.gram))
    for name in ("detection_action_map", "augmented_wnmf"):
        monkeypatch.setattr(experiments, name, record(name, getattr(experiments, name)))
    report = experiments.run_transfer(
        pair_dataset, ["office_a"], ["office_b"],
        grid_spec=GridSpec(alphas=(0.3, 0.7), lambdas=(1e-2,), gammas=(1.0,)),
        variants=("SO", "SOP"),
        solver=SolverParams(rank=2, max_iters=5),
    )
    assert all(row.scores for row in report.grid.rows)
    assert calls == ["gram"] * 4 + ["detection_action_map", "augmented_wnmf"]


@pytest.mark.parametrize(
    "source, target, message",
    [
        pytest.param((), ("office_b",), r"at least one.*\['office_b'\]", id="no-source"),
        pytest.param(("office_a",), (), r"at least one.*\['office_a'\]", id="no-target"),
        pytest.param(("office_a",), ("office_a",), r"\['office_a'\] are also sources",
                     id="same-scene"),
        pytest.param(("office_a", "office_b"), ("office_b",), r"\['office_b'\] are also sources",
                     id="target-among-sources"),
        # build_bundle skips an unknown id, so the transfer used to run
        # without it; unknown ids are refused before the list checks
        pytest.param(("office_a", "typo"), ("office_b",), "unknown scene 'typo'",
                     id="unknown-source"),
        pytest.param(("office_a",), ("typo",), "unknown scene 'typo'", id="unknown-target"),
        pytest.param(("typo",), (), "unknown scene 'typo'", id="unknown-before-empty"),
        pytest.param(("office_a",), ("office_a", "typo"), "unknown scene 'typo'",
                     id="unknown-before-shared"),
    ],
)
def test_run_transfer_refuses_scene_lists_that_void_the_novel_scene_comparison(
    pair_dataset, monkeypatch, source, target, message
):
    # a fit on no demonstrations, or on those of a scene scored as novel,
    # would still report the comparison; it is refused before any work
    from actionmaps import experiments

    def no_bundle(*args):
        raise AssertionError("a refused transfer built a bundle")

    monkeypatch.setattr(experiments, "build_bundle", no_bundle)
    with pytest.raises(ValueError, match=message):
        experiments.run_transfer(pair_dataset, source, target)


def test_run_elapse_refuses_a_bad_fraction_before_the_basis(mini_dataset, monkeypatch):
    from actionmaps import experiments, sideinfo
    from actionmaps.fileio import GenerationError

    def never(*args, **kwargs):
        raise AssertionError("basis built or fit run before the fractions were checked")

    monkeypatch.setattr(sideinfo, "_chi2_block", never)
    monkeypatch.setattr(experiments, "fit_action_map", never)
    with pytest.raises(GenerationError, match=r"fraction must be in \[0, 1\], got 1.5"):
        experiments.run_elapse(mini_dataset, [0.5, 1.0, 1.5])


def test_run_elapse_rasterizes_each_pose_once(mini_dataset, monkeypatch):
    from actionmaps.experiments import run_elapse
    from actionmaps.solver import SolverParams

    calls = _count_triangles(monkeypatch)
    out = run_elapse(mini_dataset, [0.25, 0.5, 1.0], solver=SolverParams(rank=2, max_iters=5))
    assert [fraction for fraction, _ in out] == [0.25, 0.5, 1.0]
    assert len(calls) == _n_poses(mini_dataset)
