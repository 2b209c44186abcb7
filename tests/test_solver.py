import numpy as np
import pytest

from actionmaps.scene import ActivityVocabulary, Demonstration, SceneGrid, stack_scenes
from actionmaps.solver import (
    ActionMatrixBundle,
    FactorPair,
    SolverError,
    SolverParams,
    build_bundle,
    build_weight_matrix,
    fit,
    laplacian_smoothness,
    multiplicative_step,
    normalize_action_map,
    objective,
    predict,
)
from tests.conftest import random_bundle, random_kernel


def pairwise_smoothness_oracle(mat, kernel):
    """(1/2) sum_ij ||m_i - m_j||^2 K_ij via an explicit double loop."""
    total = 0.0
    for i in range(mat.shape[0]):
        for j in range(mat.shape[0]):
            diff = mat[i] - mat[j]
            total += float(diff @ diff) * kernel[i, j]
    return 0.5 * total


def objective_oracle(u, v, bundle, k_u, k_v, lam, mu):
    """Element-wise loop evaluation of the full objective."""
    total = 0.0
    pred = u @ v.T
    for i in range(bundle.R.shape[0]):
        for c in range(bundle.R.shape[1]):
            err = bundle.R[i, c] - pred[i, c]
            total += bundle.W[i, c] * err * err
    if lam > 0 and k_u is not None:
        total += lam * pairwise_smoothness_oracle(u, k_u)
    if mu > 0 and k_v is not None:
        total += mu * pairwise_smoothness_oracle(v, k_v)
    return total


def unregularized_step_oracle(u, v, bundle, eps):
    """Separately coded plain weighted-NMF multiplicative update."""
    wr = bundle.W * bundle.R
    u2 = u * ((wr @ v) / ((bundle.W * (u @ v.T)) @ v + eps))
    v2 = v * ((wr.T @ u2) / ((bundle.W * (u2 @ v.T)).T @ u2 + eps))
    return u2, v2


# -- weight matrix ------------------------------------------------------------


def _two_activity_scene():
    vocab = ActivityVocabulary(("sit", "type"))
    scene = SceneGrid("s", 3, 2, vocabulary=vocab)
    scene.add_demonstration(Demonstration("s", (0, 0), 0, 1.0))
    scene.add_demonstration(Demonstration("s", (1, 0), 0, 1.0))
    scene.add_demonstration(Demonstration("s", (2, 0), 1, 1.0))
    return scene


def test_weight_matrix_counts():
    # 2 sit observations, 1 type observation; the 3 explored rows leave
    # 3 observed-empty entries, each weighted 1/3
    scene = _two_activity_scene()
    index = stack_scenes([scene])
    w = build_weight_matrix([scene], index)
    assert w[index.row("s", (0, 0)), 0] == pytest.approx(0.5)
    assert w[index.row("s", (1, 0)), 0] == pytest.approx(0.5)
    assert w[index.row("s", (2, 0)), 1] == pytest.approx(1.0)
    empties = [
        w[index.row("s", (0, 0)), 1],
        w[index.row("s", (1, 0)), 1],
        w[index.row("s", (2, 0)), 0],
    ]
    assert empties == pytest.approx([1 / 3] * 3)
    # unexplored rows are all zero
    assert not w[index.row("s", (0, 1))].any()


def test_weight_matrix_no_demos():
    scene = SceneGrid("s", 2, 2)
    scene.mark_explored((0, 0))
    scene.mark_explored((1, 1))
    index = stack_scenes([scene])
    w = build_weight_matrix([scene], index)
    n_z = 2 * 6
    assert w[index.row("s", (0, 0))] == pytest.approx([1 / n_z] * 6)
    assert not w[index.row("s", (0, 1))].any()


def test_weight_matrix_all_unexplored():
    scene = SceneGrid("s", 2, 2)
    index = stack_scenes([scene])
    assert not build_weight_matrix([scene], index).any()


def test_bundle_values_and_mask():
    scene = _two_activity_scene()
    index = stack_scenes([scene])
    bundle = build_bundle([scene], index)
    assert bundle.R[index.row("s", (0, 0)), 0] == 1.0
    assert np.array_equal(bundle.mask, bundle.W > 0)
    assert not bundle.R[~bundle.mask].any()


def test_bundle_excluding_scene_zeroes_it():
    scene = _two_activity_scene()
    other = SceneGrid("t", 2, 2, vocabulary=scene.vocabulary)
    other.add_demonstration(Demonstration("t", (0, 0), 0, 1.0))
    index = stack_scenes([scene, other])
    bundle = build_bundle([scene, other], index, observed_scene_ids={"s"})
    rows = index.rows_of("t")
    assert not bundle.W[rows].any()
    assert not bundle.R[rows].any()


def test_bundle_validation():
    with pytest.raises(SolverError):
        ActionMatrixBundle(
            R=np.ones((2, 2)), W=np.ones((2, 3)), mask=np.ones((2, 2), dtype=bool)
        )
    with pytest.raises(SolverError):
        ActionMatrixBundle(
            R=np.ones((2, 2)), W=np.zeros((2, 2)), mask=np.zeros((2, 2), dtype=bool)
        )


# -- objective ----------------------------------------------------------------


def test_objective_zero_factors():
    rng = np.random.default_rng(0)
    bundle = random_bundle(rng)
    u = np.zeros((bundle.R.shape[0], 3))
    v = np.zeros((bundle.R.shape[1], 3))
    j = objective(u, v, bundle, None, None, 0.0, 0.0)
    assert j == pytest.approx(float(np.sum(bundle.W * bundle.R**2)))


def test_objective_exact_factorization_is_zero():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.1, 1, (8, 2))
    v = rng.uniform(0.1, 1, (4, 2))
    r = u @ v.T
    bundle = ActionMatrixBundle(R=r, W=np.ones_like(r), mask=np.ones(r.shape, dtype=bool))
    assert objective(u, v, bundle, None, None, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        bundle = random_bundle(rng, m=10, a=4)
        k_u = random_kernel(rng, 10)
        k_v = random_kernel(rng, 4)
        u = rng.uniform(0.1, 1, (10, 3))
        v = rng.uniform(0.1, 1, (4, 3))
        got = objective(u, v, bundle, k_u, k_v, 0.3, 0.2)
        want = objective_oracle(u, v, bundle, k_u, k_v, 0.3, 0.2)
        assert got == pytest.approx(want, abs=1e-10)


def test_laplacian_identity_pairwise_vs_trace():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(5, 25))
        k = random_kernel(rng, m)
        u = rng.uniform(0, 2, (m, 4))
        trace_form = laplacian_smoothness(u, k, k.sum(axis=1))
        assert trace_form == pytest.approx(pairwise_smoothness_oracle(u, k), abs=1e-8)


def test_objective_identity_kv_contributes_nothing():
    rng = np.random.default_rng(4)
    bundle = random_bundle(rng, m=10, a=4)
    u = rng.uniform(0.1, 1, (10, 3))
    v = rng.uniform(0.1, 1, (4, 3))
    base = objective(u, v, bundle, None, None, 0.0, 0.0)
    with_id = objective(u, v, bundle, None, np.eye(4), 0.0, 0.7)
    assert with_id == pytest.approx(base, abs=1e-12)


# -- multiplicative updates ---------------------------------------------------


def test_step_fixed_point_on_noiseless_instance():
    rng = np.random.default_rng(5)
    u0 = rng.uniform(0.5, 1.5, (10, 2))
    v0 = rng.uniform(0.5, 1.5, (4, 2))
    r = u0 @ v0.T
    bundle = ActionMatrixBundle(R=r, W=np.ones_like(r), mask=np.ones(r.shape, dtype=bool))
    params = SolverParams(rank=2, lam=0.0, mu=0.0)
    u1, v1 = multiplicative_step(u0, v0, bundle, None, None, params)
    assert np.abs(u1 - u0).max() < 1e-8
    assert np.abs(v1 - v0).max() < 1e-8


def test_step_never_increases_objective():
    rng = np.random.default_rng(6)
    for _ in range(10):
        bundle = random_bundle(rng, m=15, a=5)
        k_u = random_kernel(rng, 15)
        params = SolverParams(rank=3, lam=0.05, mu=0.0, seed=0)
        u = rng.uniform(0.1, 1.1, (15, 3))
        v = rng.uniform(0.1, 1.1, (5, 3))
        j0 = objective(u, v, bundle, k_u, None, params.lam, params.mu)
        for _ in range(5):
            u, v = multiplicative_step(u, v, bundle, k_u, None, params)
            j1 = objective(u, v, bundle, k_u, None, params.lam, params.mu)
            assert j1 <= j0 + 1e-9 * max(j0, 1.0)
            j0 = j1


def test_step_reduces_to_plain_weighted_nmf():
    rng = np.random.default_rng(7)
    bundle = random_bundle(rng, m=12, a=4)
    params = SolverParams(rank=3, lam=0.0, mu=0.0)
    u = rng.uniform(0.1, 1.1, (12, 3))
    v = rng.uniform(0.1, 1.1, (4, 3))
    got_u, got_v = multiplicative_step(u, v, bundle, None, None, params)
    want_u, want_v = unregularized_step_oracle(u, v, bundle, params.epsilon_stab)
    assert np.allclose(got_u, want_u, atol=1e-14)
    assert np.allclose(got_v, want_v, atol=1e-14)


def test_step_preserves_nonnegativity():
    rng = np.random.default_rng(8)
    bundle = random_bundle(rng, m=15, a=5)
    k_u = random_kernel(rng, 15)
    k_v = random_kernel(rng, 5)
    params = SolverParams(rank=3, lam=0.1, mu=0.1)
    u = rng.uniform(0.1, 1.1, (15, 3))
    v = rng.uniform(0.1, 1.1, (5, 3))
    for _ in range(20):
        u, v = multiplicative_step(u, v, bundle, k_u, k_v, params)
        assert (u >= 0).all() and (v >= 0).all()


def test_general_kv_path_monotone():
    rng = np.random.default_rng(9)
    bundle = random_bundle(rng, m=12, a=6)
    k_u = random_kernel(rng, 12)
    k_v = random_kernel(rng, 6)
    params = SolverParams(rank=3, lam=0.02, mu=0.05, seed=1)
    u = rng.uniform(0.1, 1.1, (12, 3))
    v = rng.uniform(0.1, 1.1, (6, 3))
    prev = objective(u, v, bundle, k_u, k_v, params.lam, params.mu)
    for _ in range(15):
        u, v = multiplicative_step(u, v, bundle, k_u, k_v, params)
        cur = objective(u, v, bundle, k_u, k_v, params.lam, params.mu)
        assert cur <= prev + 1e-9 * max(prev, 1.0)
        prev = cur


# -- fit ----------------------------------------------------------------------


def test_fit_recovers_rank_one_instance():
    rng = np.random.default_rng(10)
    u_true = rng.uniform(0.5, 2.0, (20, 1))
    v_true = rng.uniform(0.5, 2.0, (5, 1))
    r = u_true @ v_true.T
    bundle = ActionMatrixBundle(R=r, W=np.ones_like(r), mask=np.ones(r.shape, dtype=bool))
    result = fit(bundle, None, None, SolverParams(rank=1, lam=0, mu=0, max_iters=3000, rel_tol=1e-12, seed=3))
    rel = np.linalg.norm(predict(result.factors) - r) / np.linalg.norm(r)
    assert rel < 1e-3


def test_fit_trace_non_increasing():
    rng = np.random.default_rng(11)
    for seed in range(3):
        bundle = random_bundle(rng, m=20, a=5)
        k_u = random_kernel(rng, 20)
        result = fit(bundle, k_u, None, SolverParams(rank=4, lam=0.01, max_iters=150, seed=seed))
        trace = result.trace
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_fit_seed_reproducible():
    rng = np.random.default_rng(12)
    bundle = random_bundle(rng, m=15, a=4)
    k_u = random_kernel(rng, 15)
    params = SolverParams(rank=3, lam=0.01, max_iters=60, seed=9)
    a = fit(bundle, k_u, None, params)
    b = fit(bundle, k_u, None, params)
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.factors.U, b.factors.U)


def test_fit_requires_kernel_when_regularized():
    rng = np.random.default_rng(13)
    bundle = random_bundle(rng)
    with pytest.raises(SolverError):
        fit(bundle, None, None, SolverParams(lam=0.1))


def test_weight_scaling_behavior():
    # scaling W by c scales the data-fit term by c (weights multiply squared
    # residuals), and with lambda co-scaled by c the full objective scales by
    # c, so the minimizer set is unchanged
    rng = np.random.default_rng(14)
    bundle = random_bundle(rng, m=10, a=4)
    k_u = random_kernel(rng, 10)
    u = rng.uniform(0.1, 1.1, (10, 3))
    v = rng.uniform(0.1, 1.1, (4, 3))
    c = 3.7
    scaled = ActionMatrixBundle(R=bundle.R, W=c * bundle.W, mask=bundle.mask)
    j1 = objective(u, v, bundle, k_u, None, 0.02, 0.0)
    j2 = objective(u, v, scaled, k_u, None, c * 0.02, 0.0)
    assert j2 == pytest.approx(c * j1, rel=1e-12)


# -- predict ------------------------------------------------------------------


def test_predict_and_normalize():
    factors = FactorPair(U=np.array([[1.0], [2.0]]), V=np.array([[3.0]]))
    am = predict(factors)
    assert np.allclose(am, [[3.0], [6.0]])
    norm = normalize_action_map(am)
    assert np.allclose(norm, [[0.5], [1.0]])


def test_predict_nonnegative_and_unit_columns():
    rng = np.random.default_rng(15)
    factors = FactorPair(U=rng.uniform(0, 1, (10, 3)), V=rng.uniform(0, 1, (4, 3)))
    am = predict(factors)
    assert (am >= 0).all()
    norm = normalize_action_map(am)
    assert np.allclose(norm.max(axis=0), 1.0)


def test_normalize_keeps_zero_columns():
    am = np.zeros((4, 2))
    am[:, 0] = [0.0, 1.0, 2.0, 4.0]
    norm = normalize_action_map(am)
    assert np.allclose(norm[:, 0], [0.0, 0.25, 0.5, 1.0])
    assert not norm[:, 1].any()


def test_factor_validation():
    with pytest.raises(SolverError):
        FactorPair(U=np.ones((3, 2)), V=np.ones((2, 3)))
    with pytest.raises(SolverError):
        FactorPair(U=-np.ones((3, 2)), V=np.ones((2, 2)))
    with pytest.raises(SolverError):
        SolverParams(rank=0)
    with pytest.raises(SolverError):
        SolverParams(lam=-1.0)


def test_fit_requires_activity_kernel_when_mu_positive():
    rng = np.random.default_rng(14)
    bundle = random_bundle(rng)
    with pytest.raises(SolverError, match="mu > 0"):
        fit(bundle, None, None, SolverParams(lam=0.0, mu=0.5))


def test_fit_checks_activity_kernel_shape():
    rng = np.random.default_rng(15)
    bundle = random_bundle(rng, m=12, a=4)
    with pytest.raises(SolverError, match="K_V must be 4x4"):
        fit(bundle, None, random_kernel(rng, 5), SolverParams(lam=0.0, mu=0.5))
    result = fit(bundle, None, random_kernel(rng, 4),
                 SolverParams(rank=2, lam=0.0, mu=0.5, max_iters=20, seed=1))
    assert np.all(np.diff(result.trace) <= 1e-9 * np.maximum(np.abs(result.trace[:-1]), 1.0))
