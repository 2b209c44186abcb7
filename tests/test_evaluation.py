import math

import numpy as np
import pytest

from actionmaps.evaluation import (
    EvaluationError,
    GridSpec,
    ViewTriangle,
    aggregate,
    cells_in_triangle,
    f1_sweep,
    image_gt,
    image_scores,
    run_parameter_grid,
    score_action_map,
)


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
    cells = cells_in_triangle(tri, (4, 4))
    assert set(cells) <= {(1, 1)}


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
        got = set(cells_in_triangle(tri, (8, 8)))
        verts = tri.vertices()
        want = {
            (i, j)
            for i in range(8)
            for j in range(8)
            if barycentric_inside((i + 0.5, j + 0.5), verts)
        }
        assert got == want


def test_triangle_heading_x_fov90():
    tri = ViewTriangle(apex=(0.0, 2.5), heading=(1.0, 0.0), fov_deg=90, range_cells=3)
    got = set(cells_in_triangle(tri, (6, 6)))
    verts = tri.vertices()
    want = {
        (i, j) for i in range(6) for j in range(6)
        if barycentric_inside((i + 0.5, j + 0.5), verts)
    }
    assert got == want


def test_triangle_outside_grid_empty():
    tri = ViewTriangle(apex=(50.0, 50.0), heading=(1.0, 0.0), fov_deg=60, range_cells=3)
    assert cells_in_triangle(tri, (4, 4)) == []


def test_triangle_validation():
    with pytest.raises(EvaluationError):
        ViewTriangle(apex=(0, 0), heading=(1.0, 0.0), fov_deg=200)
    with pytest.raises(EvaluationError):
        ViewTriangle(apex=(0, 0), heading=(2.0, 0.0))
    with pytest.raises(EvaluationError):
        ViewTriangle(apex=(0, 0), heading=(1.0, 0.0), range_cells=0)


# -- image scores -------------------------------------------------------------


def _wedge():
    return ViewTriangle(apex=(0.1, 1.5), heading=(1.0, 0.0), fov_deg=80, range_cells=2.5)


def _view(tri, grid_shape):
    """Row indices of the triangle's cells, as collect_image_data passes them."""
    return [i * grid_shape[1] + j for i, j in cells_in_triangle(tri, grid_shape)]


def test_image_scores_uniform_value():
    am = np.full((9, 2), 0.37)
    assert image_scores(am, _view(_wedge(), (3, 3))) == pytest.approx([0.37, 0.37])


def test_image_scores_two_cell_mean():
    tri = ViewTriangle(apex=(0.0, 0.5), heading=(1.0, 0.0), fov_deg=30, range_cells=2.2)
    cells = cells_in_triangle(tri, (3, 1))
    assert cells == [(0, 0), (1, 0)]
    am = np.zeros((3, 1))
    am[0, 0], am[1, 0] = 0.2, 0.8
    assert image_scores(am, _view(tri, (3, 1)))[0] == pytest.approx(0.5)


def test_image_scores_ignore_outside_cells():
    view = _view(_wedge(), (3, 3))
    am = np.random.default_rng(1).uniform(0, 1, (9, 2))
    before = image_scores(am, view)
    outside = [r for r in range(9) if r not in view]
    assert outside
    am[outside] = 123.0
    assert image_scores(am, view) == pytest.approx(before)


def test_image_scores_empty_triangle_zero():
    tri = ViewTriangle(apex=(40.0, 40.0), heading=(1.0, 0.0))
    view = _view(tri, (3, 3))
    assert view == []
    assert image_scores(np.ones((9, 2)), view) == pytest.approx([0.0, 0.0])
    assert not image_gt(np.ones((9, 2), dtype=bool), view).any()


def test_image_scores_matches_loop_oracle():
    rng = np.random.default_rng(2)
    am = rng.uniform(0, 1, (25, 3))
    tri = ViewTriangle(apex=(1.2, 2.3), heading=(0.6, 0.8), fov_deg=75, range_cells=3.5)
    cells = cells_in_triangle(tri, (5, 5))
    expected = np.mean([am[i * 5 + j] for i, j in cells], axis=0)
    assert image_scores(am, _view(tri, (5, 5))) == pytest.approx(expected, abs=1e-12)


def test_image_gt_any_rule():
    labels = np.zeros((9, 2), dtype=bool)
    labels[1 * 3 + 1, 0] = True
    tri = _wedge()
    cells = set(cells_in_triangle(tri, (3, 3)))
    gt = image_gt(labels, _view(tri, (3, 3)))
    assert gt[0] == ((1, 1) in cells)
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
    labels = np.vstack([s.label_matrix() for s in mini_dataset.scenes]).astype(float)
    result = score_action_map(mini_dataset.scenes, index, labels)
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
