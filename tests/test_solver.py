from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionmaps import solver
from actionmaps.scene import ActivityVocabulary, Demonstrations, GlobalIndex, SceneGrid
from actionmaps.sideinfo import GramMatrix
from actionmaps.solver import (
    ActionMatrixBundle,
    FactorPair,
    SolverError,
    SolverParams,
    build_bundle,
    fit,
    laplacian_smoothness,
    multiplicative_step,
    normalize_action_map,
    objective,
    predict,
)
from tests.conftest import random_bundle, random_gram, random_kernel


def pairwise_smoothness_oracle(mat, kernel):
    """(1/2) sum_ij ||m_i - m_j||^2 K_ij via an explicit double loop."""
    total = 0.0
    for i in range(mat.shape[0]):
        for j in range(mat.shape[0]):
            diff = mat[i] - mat[j]
            total += float(diff @ diff) * kernel[i, j]
    return 0.5 * total


def objective_oracle(u, v, bundle, k_u, lam):
    """Element-wise loop evaluation of the full objective."""
    total = 0.0
    pred = u @ v.T
    for i in range(bundle.R.shape[0]):
        for c in range(bundle.R.shape[1]):
            err = bundle.R[i, c] - pred[i, c]
            total += bundle.W[i, c] * err * err
    if lam > 0 and k_u is not None:
        total += lam * pairwise_smoothness_oracle(u, k_u)
    return total


def unregularized_step_oracle(u, v, bundle, eps):
    """Separately coded plain weighted-NMF multiplicative update."""
    wr = bundle.W * bundle.R
    u2 = u * ((wr @ v) / ((bundle.W * (u @ v.T)) @ v + eps))
    v2 = v * ((wr.T @ u2) / ((bundle.W * (u2 @ v.T)).T @ u2 + eps))
    return u2, v2


def iterate_products(u, v, bundle, k, lam):
    """What fit's loop forms for one iterate: U @ V^T, W * R, K @ U held
    C-contiguous (None when lam = 0 or there is no kernel) and the degrees."""
    ku, deg = solver._as_kernel(k)
    ku_u = np.ascontiguousarray(ku @ u) if lam > 0 and ku is not None else None
    return u @ v.T, bundle.W * bundle.R, ku_u, deg


def objective_at(u, v, bundle, k, lam):
    uv, _, ku_u, deg = iterate_products(u, v, bundle, k, lam)
    return objective(u, uv, bundle, lam, ku_u, deg)


def step_from(u, v, bundle, k, lam):
    uv, wr, ku_u, deg = iterate_products(u, v, bundle, k, lam)
    return multiplicative_step(u, v, bundle, wr, uv, lam, ku_u, deg)


# -- weight matrix ------------------------------------------------------------


def _two_activity_scene():
    # demos at the cells (0, 0), (1, 0) and (2, 0), which are rows 0, 2 and 4
    vocab = ActivityVocabulary(("sit", "type"))
    demos = Demonstrations([0, 2, 4], [0, 0, 1], [1.0, 1.0, 1.0])
    return SceneGrid("s", 3, 2, vocabulary=vocab, demonstrations=demos)


def test_weight_matrix_counts():
    # 2 sit observations, 1 type observation; the 3 explored rows leave
    # 3 observed-empty entries, each weighted 1/3
    scene = _two_activity_scene()
    index = GlobalIndex([scene])
    w = build_bundle([scene], index).W
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
    scene = SceneGrid("s", 2, 2, explored=[True, False, False, True])  # cells (0, 0), (1, 1)
    index = GlobalIndex([scene])
    w = build_bundle([scene], index).W
    n_z = 2 * 6
    assert w[index.row("s", (0, 0))] == pytest.approx([1 / n_z] * 6)
    assert not w[index.row("s", (0, 1))].any()


def test_weight_matrix_all_unexplored():
    scene = SceneGrid("s", 2, 2)
    index = GlobalIndex([scene])
    assert not build_bundle([scene], index).W.any()


def test_bundle_values_and_mask():
    # the observed entries are W > 0; R is zero everywhere else
    scene = _two_activity_scene()
    index = GlobalIndex([scene])
    bundle = build_bundle([scene], index)
    assert bundle.R[index.row("s", (0, 0)), 0] == 1.0
    assert not bundle.R[bundle.W == 0].any()


def test_bundle_excluding_scene_zeroes_it():
    scene = _two_activity_scene()
    other = SceneGrid(
        "t", 2, 2, vocabulary=scene.vocabulary, demonstrations=Demonstrations([0], [0], [1.0])
    )
    index = GlobalIndex([scene, other])
    bundle = build_bundle([scene, other], index, observed_scene_ids={"s"})
    rows = index.rows_of("t")
    assert not bundle.W[rows].any()
    assert not bundle.R[rows].any()


def test_bundle_validation():
    with pytest.raises(SolverError, match="shape mismatch"):
        ActionMatrixBundle(R=np.ones((2, 2)), W=np.ones((2, 3)))
    with pytest.raises(SolverError, match="unobserved entries"):
        ActionMatrixBundle(R=np.ones((2, 2)), W=np.zeros((2, 2)))
    with pytest.raises(SolverError, match="non-negative"):
        ActionMatrixBundle(R=-np.ones((2, 2)), W=np.ones((2, 2)))


@pytest.mark.parametrize("where", ["R", "W"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_bundle_rejects_non_finite(where, value):
    # a NaN in W (with R = 0 there) used to construct, and fit then failed
    # after one step with a RuntimeError about the update
    r, w = np.ones((3, 2)), np.ones((3, 2))
    if where == "W":
        r[1, 0] = 0.0
    {"R": r, "W": w}[where][1, 0] = value
    with pytest.raises(SolverError, match=f"{where} must be finite"):
        ActionMatrixBundle(R=r, W=w)


# -- objective ----------------------------------------------------------------


def test_objective_zero_factors():
    rng = np.random.default_rng(0)
    bundle = random_bundle(rng)
    u = np.zeros((bundle.R.shape[0], 3))
    v = np.zeros((bundle.R.shape[1], 3))
    j = objective_at(u, v, bundle, None, 0.0)
    assert j == pytest.approx(float(np.sum(bundle.W * bundle.R**2)))


def test_objective_exact_factorization_is_zero():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.1, 1, (8, 2))
    v = rng.uniform(0.1, 1, (4, 2))
    r = u @ v.T
    bundle = ActionMatrixBundle(R=r, W=np.ones_like(r))
    assert objective_at(u, v, bundle, None, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        bundle = random_bundle(rng, m=10, a=4)
        k_u = random_gram(rng, 10)
        u = rng.uniform(0.1, 1, (10, 3))
        v = rng.uniform(0.1, 1, (4, 3))
        got = objective_at(u, v, bundle, k_u, 0.3)
        want = objective_oracle(u, v, bundle, k_u.matrix, 0.3)
        assert got == pytest.approx(want, abs=1e-10)


def test_laplacian_identity_pairwise_vs_trace():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(5, 25))
        k = random_kernel(rng, m)
        u = rng.uniform(0, 2, (m, 4))
        trace_form = laplacian_smoothness(u, k.sum(axis=1), k @ u)
        assert trace_form == pytest.approx(pairwise_smoothness_oracle(u, k), abs=1e-8)


# -- multiplicative updates ---------------------------------------------------


def test_step_fixed_point_on_noiseless_instance():
    rng = np.random.default_rng(5)
    u0 = rng.uniform(0.5, 1.5, (10, 2))
    v0 = rng.uniform(0.5, 1.5, (4, 2))
    r = u0 @ v0.T
    bundle = ActionMatrixBundle(R=r, W=np.ones_like(r))
    u1, v1 = step_from(u0, v0, bundle, None, 0.0)
    assert np.abs(u1 - u0).max() < 1e-8
    assert np.abs(v1 - v0).max() < 1e-8


def test_step_never_increases_objective():
    rng = np.random.default_rng(6)
    for _ in range(10):
        bundle = random_bundle(rng, m=15, a=5)
        k_u = random_gram(rng, 15)
        u = rng.uniform(0.1, 1.1, (15, 3))
        v = rng.uniform(0.1, 1.1, (5, 3))
        j0 = objective_at(u, v, bundle, k_u, 0.05)
        for _ in range(5):
            u, v = step_from(u, v, bundle, k_u, 0.05)
            j1 = objective_at(u, v, bundle, k_u, 0.05)
            assert j1 <= j0 + 1e-9 * max(j0, 1.0)
            j0 = j1


def test_step_reduces_to_plain_weighted_nmf():
    rng = np.random.default_rng(7)
    bundle = random_bundle(rng, m=12, a=4)
    u = rng.uniform(0.1, 1.1, (12, 3))
    v = rng.uniform(0.1, 1.1, (4, 3))
    got_u, got_v = step_from(u, v, bundle, None, 0.0)
    want_u, want_v = unregularized_step_oracle(u, v, bundle, solver.STABILIZER)
    assert np.allclose(got_u, want_u, atol=1e-14)
    assert np.allclose(got_v, want_v, atol=1e-14)


def test_step_preserves_nonnegativity():
    rng = np.random.default_rng(8)
    bundle = random_bundle(rng, m=15, a=5)
    k_u = random_gram(rng, 15)
    u = rng.uniform(0.1, 1.1, (15, 3))
    v = rng.uniform(0.1, 1.1, (5, 3))
    for _ in range(20):
        u, v = step_from(u, v, bundle, k_u, 0.1)
        assert (u >= 0).all() and (v >= 0).all()


# -- fit ----------------------------------------------------------------------


def test_fit_recovers_rank_one_instance():
    rng = np.random.default_rng(10)
    u_true = rng.uniform(0.5, 2.0, (20, 1))
    v_true = rng.uniform(0.5, 2.0, (5, 1))
    r = u_true @ v_true.T
    bundle = ActionMatrixBundle(R=r, W=np.ones_like(r))
    result = fit(bundle, None,
                 params=SolverParams(rank=1, lam=0, max_iters=3000, rel_tol=1e-12, seed=3))
    rel = np.linalg.norm(predict(result.factors) - r) / np.linalg.norm(r)
    assert rel < 1e-3


def test_fit_trace_non_increasing():
    rng = np.random.default_rng(11)
    for seed in range(3):
        bundle = random_bundle(rng, m=20, a=5)
        k_u = random_gram(rng, 20)
        result = fit(bundle, k_u, params=SolverParams(rank=4, lam=0.01, max_iters=150, seed=seed))
        trace = result.trace
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_fit_seed_reproducible():
    rng = np.random.default_rng(12)
    bundle = random_bundle(rng, m=15, a=4)
    k_u = random_gram(rng, 15)
    params = SolverParams(rank=3, lam=0.01, max_iters=60, seed=9)
    a = fit(bundle, k_u, params=params)
    b = fit(bundle, k_u, params=params)
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.factors.U, b.factors.U)


def test_fit_requires_kernel_when_regularized():
    rng = np.random.default_rng(13)
    bundle = random_bundle(rng)
    with pytest.raises(SolverError):
        fit(bundle, None, params=SolverParams(lam=0.1))


def test_weight_scaling_behavior():
    # scaling W by c scales the data-fit term by c (weights multiply squared
    # residuals), and with lambda co-scaled by c the full objective scales by
    # c, so the minimizer set is unchanged
    rng = np.random.default_rng(14)
    bundle = random_bundle(rng, m=10, a=4)
    k_u = random_gram(rng, 10)
    u = rng.uniform(0.1, 1.1, (10, 3))
    v = rng.uniform(0.1, 1.1, (4, 3))
    c = 3.7
    scaled = ActionMatrixBundle(R=bundle.R, W=c * bundle.W)
    j1 = objective_at(u, v, bundle, k_u, 0.02)
    j2 = objective_at(u, v, scaled, k_u, c * 0.02)
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


def test_solver_params_settings():
    # one kernel: no activity-kernel weight; the update stabilizer is a constant
    names = [f.name for f in fields(SolverParams)]
    assert names == ["rank", "lam", "max_iters", "rel_tol", "seed"]
    assert solver.STABILIZER == 1e-12
    # a seed is SeedSequence entropy, which has no negative value
    with pytest.raises(SolverError, match=r"^seed must be >= 0, got -1$"):
        SolverParams(seed=-1)
    assert SolverParams(seed=0).seed == 0


def test_solver_params_reject_negative_iterations_and_stabilizer():
    with pytest.raises(SolverError, match="max_iters"):
        SolverParams(max_iters=-1)
    assert SolverParams(max_iters=0).max_iters == 0


@pytest.mark.parametrize("field", ["lam", "rel_tol", "rank", "max_iters"])
def test_solver_params_reject_nan(field):
    # every comparison with NaN is False, so a check must be written to fail on it
    with pytest.raises(SolverError):
        SolverParams(**{field: float("nan")})


@pytest.mark.parametrize(
    "field, value",
    [("rank", 2.5), ("rank", True), ("max_iters", 2.5), ("max_iters", True),
     ("seed", 1.5), ("seed", False), ("lam", "0.1"), ("lam", True),
     ("rel_tol", None), ("rel_tol", True)],
)
def test_solver_params_reject_wrong_types(field, value):
    # a float count used to reach numpy as a bare TypeError, which the grid
    # does not record, and max_iters=True ran one iteration
    with pytest.raises(SolverError, match=field):
        SolverParams(**{field: value})


def test_solver_params_take_numpy_scalars():
    params = SolverParams(rank=np.int64(3), lam=np.float64(0.1), max_iters=np.int32(5),
                          rel_tol=1, seed=np.uint8(2))
    assert params.rank == 3 and params.rel_tol == 1


@pytest.mark.parametrize("which", ["raw K_U", "Gram K_U"])
def test_fit_rejects_non_finite_kernel(which):
    # before the check, fit ran one step and raised a misleading RuntimeError;
    # a raw array is refused for not being a GramMatrix, which cannot be
    # built with a NaN and is frozen after, so only one whose write flag and
    # frozen fields are forced open gets through to fit's own check
    rng = np.random.default_rng(16)
    bundle = random_bundle(rng, m=6, a=3)
    if which == "raw K_U":
        k_u, match = np.full((6, 6), np.nan), "GramMatrix"
    else:
        k_u, match = random_gram(rng, 6), "must be finite"
        k_u.matrix.setflags(write=True)
        k_u.matrix[0, 1] = k_u.matrix[1, 0] = np.inf
        object.__setattr__(k_u, "degrees", k_u.matrix.sum(axis=1))
    with pytest.raises(SolverError, match=match):
        fit(bundle, k_u, params=SolverParams(rank=2, lam=0.1, max_iters=5))


@pytest.mark.parametrize(
    "kind", ["ndarray", "list", "asymmetric"], ids=lambda kind: f"K_U-{kind}"
)
def test_solver_takes_only_gram_kernels(kind):
    # raw kernels used to be accepted unchecked; an asymmetric one let the
    # objective rise between iterates, and it cannot be made a GramMatrix
    rng = np.random.default_rng(18)
    bundle = random_bundle(rng, m=6, a=3)
    k = random_kernel(rng, 6)
    if kind == "asymmetric":
        k[0, 1] = 0.0
        with pytest.raises(TypeError, match="only by GramBasis.gram"):
            GramMatrix(matrix=k)
    raw = k.tolist() if kind == "list" else k
    with pytest.raises(SolverError, match="GramMatrix"):
        fit(bundle, raw, params=SolverParams(rank=2, lam=0.1))


# -- the seeded start ----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**130), st.integers(0, 2**63 - 1).map(np.int64),
                   st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**128])),
    m=st.integers(1, 150),
    n_act=st.integers(1, 12),
    rank=st.integers(1, 8),
)
@example(seed=0, m=62, n_act=1, rank=1)  # 63 draws: one short block
@example(seed=1, m=63, n_act=1, rank=1)  # 64 draws: one full block
@example(seed=2, m=32, n_act=1, rank=2)  # 66 draws: V starts in the second block
def test_initial_factors_are_numpys_draws_property(seed, m, n_act, rank):
    u, v = solver._initial_factors(seed, m, n_act, rank)
    rng = np.random.default_rng(seed)
    for got, want in ((u, rng.uniform(0.1, 1.1, (m, rank))),
                      (v, rng.uniform(0.1, 1.1, (n_act, rank)))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, first_u, last_u, first_v, last_v", [
    (0, 0.7369616873214543, 1.0350724237877682, 0.9158535541215321, 0.275655620602559),
    (2**64 + 5, 0.8426581154321283, 0.7808639474859559, 0.2862555760649771,
     0.5643002254822743),
])
def test_initial_factors_start_the_stream_at_fixed_values(seed, first_u, last_u, first_v,
                                                          last_v):
    # literals, so that the fits' outputs cannot follow numpy's stream policy
    u, v = solver._initial_factors(seed, 5, 3, 2)
    assert (u[0, 0], u[-1, -1], v[0, 0], v[-1, -1]) == (first_u, last_u, first_v, last_v)


# -- one K·U product per iterate ----------------------------------------------


def fit_loop_oracle(bundle, k_u, params):
    """fit's loop for one run, with each iterate's products formed by
    iterate_products."""
    m, n_act = bundle.shape
    rng = np.random.default_rng(params.seed)
    u = rng.uniform(0.1, 1.1, size=(m, params.rank))
    v = rng.uniform(0.1, 1.1, size=(n_act, params.rank))
    trace = [objective_at(u, v, bundle, k_u, params.lam)]
    for _ in range(params.max_iters):
        u, v = step_from(u, v, bundle, k_u, params.lam)
        trace.append(objective_at(u, v, bundle, k_u, params.lam))
        if trace[-2] - trace[-1] < params.rel_tol * max(abs(trace[-2]), 1e-30):
            break
    return u, v, np.array(trace)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 14),
    n_act=st.integers(1, 5),
    rank=st.integers(1, 4),
    lam=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_fit_matches_loop_oracle_property(m, n_act, rank, lam, seed):
    rng = np.random.default_rng(seed)
    bundle = random_bundle(rng, m=m, a=n_act)
    k_u = random_gram(rng, m)
    params = SolverParams(rank=rank, lam=lam, max_iters=30, rel_tol=1e-9, seed=seed)
    result = fit(bundle, k_u, params=params)
    u, v, trace = fit_loop_oracle(bundle, k_u, params)
    assert np.array_equal(result.factors.U, u)
    assert np.array_equal(result.factors.V, v)
    assert np.array_equal(result.trace, trace)
    assert np.all(np.diff(trace) <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 40),
    n_act=st.integers(1, 6),
    rank=st.integers(1, 8),
    lam=st.one_of(st.just(0.0), st.floats(1e-4, 10.0)),
    seed=st.integers(0, 2**16),
)
@example(m=5, n_act=2, rank=2, lam=0.0, seed=1)
@example(m=5, n_act=2, rank=2, lam=0.5, seed=1)
def test_objective_and_step_leave_the_iterate_unchanged_property(m, n_act, rank, lam, seed):
    # a fit hands one iterate's U, V, U @ V^T, W * R and K @ U to both the
    # objective and the step, so neither may write to them
    rng = np.random.default_rng(seed)
    bundle = random_bundle(rng, m=m, a=n_act)
    k = random_gram(rng, m)
    u = rng.uniform(0.1, 1.1, (m, rank))
    v = rng.uniform(0.1, 1.1, (n_act, rank))
    uv, wr, ku_u, deg = iterate_products(u, v, bundle, k, lam)
    assert (ku_u is None) == (lam == 0)
    inputs = [a for a in (u, v, uv, wr, ku_u) if a is not None]
    before = [a.copy() for a in inputs]
    assert type(objective(u, uv, bundle, lam, ku_u, deg)) is float
    multiplicative_step(u, v, bundle, wr, uv, lam, ku_u, deg)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


def _count_solver_hooks(monkeypatch):
    """Wrap objective, multiplicative_step and _as_kernel in the solver module,
    the way the traced benchmark does; K @ U products are counted on the
    kernel view _as_kernel hands out."""
    counts = Counter()

    class CountingKernel(np.ndarray):
        def __matmul__(self, other):
            counts["products"] += 1
            return np.matmul(self.view(np.ndarray), other)

    as_kernel = solver._as_kernel

    def counting_as_kernel(k):
        mat, degrees = as_kernel(k)
        return (None if mat is None else mat.view(CountingKernel)), degrees

    def counted(name):
        fn = getattr(solver, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solver, "_as_kernel", counting_as_kernel)
    for name in ("objective", "multiplicative_step"):
        monkeypatch.setattr(solver, name, counted(name))
    return counts


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_fit_reaches_benchmark_hooks_with_one_product_per_iterate(monkeypatch, lam):
    rng = np.random.default_rng(16)
    bundle = random_bundle(rng, m=15, a=4)
    k_u = random_gram(rng, 15)
    counts = _count_solver_hooks(monkeypatch)
    result = fit(bundle, k_u,
                 params=SolverParams(rank=3, lam=lam, max_iters=25, rel_tol=1e-12, seed=2))
    iterations = len(result.trace) - 1
    assert iterations > 0
    assert counts["multiplicative_step"] == iterations
    assert counts["objective"] == iterations + 1
    assert counts["products"] == (iterations + 1 if lam > 0 else 0)


# -- the kernel product ----------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 200])
def test_kernel_product_matches_plain_matmul(m):
    # the layout may change the last bits at some ranks, so only a tolerance
    # is asserted against the plain product
    rng = np.random.default_rng(m)
    k = random_gram(rng, m)
    ku, _ = solver._as_kernel(k)
    for r in range(1, 13):
        u = rng.uniform(0.1, 1.1, size=(m, r))
        got = ku @ u
        assert type(got) is np.ndarray and got.shape == (m, r)
        np.testing.assert_allclose(got, np.asarray(k.matrix) @ u, rtol=1e-12, atol=0)


def test_kernel_view_is_read_only():
    k = random_gram(np.random.default_rng(3), 5)
    ku, _ = solver._as_kernel(k)
    assert np.shares_memory(ku, k.matrix) and not ku.flags.writeable
    with pytest.raises(ValueError):
        ku[0, 0] = 0.5


def test_fit_results_carry_no_kernel_subclass():
    rng = np.random.default_rng(4)
    bundle = random_bundle(rng, m=20, a=3)
    k = random_gram(rng, 20)
    result = fit(bundle, k, params=SolverParams(rank=6, lam=0.1, max_iters=5))
    u, v = result.factors.U, result.factors.V
    assert type(u) is np.ndarray and type(v) is np.ndarray
    assert type(result.trace) is np.ndarray
    assert type(objective_at(u, v, bundle, k, 0.1)) is float


def test_fit_stop_reason():
    rng = np.random.default_rng(17)
    bundle = random_bundle(rng, m=12, a=4)
    k_u = random_gram(rng, 12)
    capped = fit(bundle, k_u, params=SolverParams(rank=2, lam=0.01, max_iters=3, rel_tol=1e-12))
    assert capped.stop_reason == "max_iters" and len(capped.trace) == 4
    converged = fit(bundle, k_u,
                    params=SolverParams(rank=2, lam=0.01, max_iters=500, rel_tol=1e-2))
    assert converged.stop_reason == "tolerance" and len(converged.trace) < 501
    assert fit(bundle, k_u, params=SolverParams(rank=2, max_iters=0)).stop_reason == "max_iters"


# -- cohorts: runs fitted in lockstep ------------------------------------------


def _cohort_case(m, n_runs, seed=21, **overrides):
    """A bundle, a Gram and n_runs params that differ in lam and seed."""
    rng = np.random.default_rng(seed)
    bundle = random_bundle(rng, m=m, a=5)
    gram = random_gram(rng, m)
    params = [SolverParams(**{"rank": 3, "lam": (1e-2, 1e-1)[i % 2], "max_iters": 40,
                              "rel_tol": 1e-12, "seed": 100 + i, **overrides})
              for i in range(n_runs)]
    return bundle, gram, params


def _fit_cohort_runs(bundle, gram, params):
    """Each run's fit() call on one cohort: its FitResult, or its error."""
    cohort = solver.Cohort(gram, [(bundle, p) for p in params])
    out = []
    for p in params:
        try:
            out.append(fit(bundle, gram, params=p, cohort=cohort))
        except (ValueError, RuntimeError) as exc:
            out.append(exc)
    return out


def _assert_same_fit(got, want):
    assert np.array_equal(got.factors.U, want.factors.U)
    assert np.array_equal(got.factors.V, want.factors.V)
    assert np.array_equal(got.trace, want.trace)
    assert got.stop_reason == want.stop_reason


@pytest.mark.parametrize("m, n_runs", [(30, 2), (60, 3), (150, 4), (385, 2)])
def test_cohort_runs_equal_solo_fits(m, n_runs):
    # the package promises 9 digits; on these shapes a run's block of the
    # shared pass has held its solo product's bits at 1 and 2 BLAS threads
    bundle, gram, params = _cohort_case(m, n_runs)
    for got, p in zip(_fit_cohort_runs(bundle, gram, params), params):
        _assert_same_fit(got, fit(bundle, gram, params=p))


def test_cohort_run_that_goes_non_finite_fails_alone():
    bundle, gram, params = _cohort_case(40, 3)
    params[1] = SolverParams(rank=3, lam=1e308, max_iters=40, rel_tol=1e-12, seed=5)
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="non-finite") as solo_error:
            fit(bundle, gram, params=params[1])
        got = _fit_cohort_runs(bundle, gram, params)
    assert isinstance(got[1], RuntimeError) and str(got[1]) == str(solo_error.value)
    for k in (0, 2):
        _assert_same_fit(got[k], fit(bundle, gram, params=params[k]))


def test_cohort_without_kernel_fails_only_regularized_runs():
    bundle, _, params = _cohort_case(20, 2)
    params[0] = SolverParams(rank=3, lam=0.0, max_iters=10, seed=3)
    got = _fit_cohort_runs(bundle, None, params)
    _assert_same_fit(got[0], fit(bundle, None, params=params[0]))
    assert isinstance(got[1], SolverError) and "requires a location kernel" in str(got[1])


def _record_passes(monkeypatch):
    """The params of the runs of every K @ U pass; a solo fit's passes hold 1."""
    passes = []
    kernel_products = solver._kernel_products

    def recording(ku, runs):
        passes.append([run.params for run in runs])
        kernel_products(ku, runs)

    monkeypatch.setattr(solver, "_kernel_products", recording)
    return passes


def test_cohort_run_stopping_on_tolerance_leaves_the_batch(monkeypatch):
    bundle, gram, params = _cohort_case(80, 4, max_iters=200)
    params[2] = SolverParams(rank=3, lam=1e-2, max_iters=200, rel_tol=1e-2, seed=9)
    passes = _record_passes(monkeypatch)
    got = _fit_cohort_runs(bundle, gram, params)
    assert got[2].stop_reason == "tolerance" and len(got[2].trace) < 201
    assert [r.stop_reason for k, r in enumerate(got) if k != 2] == ["max_iters"] * 3
    # the batch passes the 3 runs that go on after the one leaves
    assert len(passes[0]) == 4 and len(passes[-1]) == 3
    for got_run, p in zip(got, params):
        _assert_same_fit(got_run, fit(bundle, gram, params=p))


def test_cohort_of_six_runs_passes_them_in_one_batch(monkeypatch):
    bundle, gram, params = _cohort_case(50, 6, max_iters=60)
    params[4] = SolverParams(rank=3, lam=1e-2, max_iters=60, rel_tol=1e-2, seed=9)
    passes = _record_passes(monkeypatch)
    got = _fit_cohort_runs(bundle, gram, params)
    assert got[4].stop_reason == "tolerance" and len(got[4].trace) < 61
    # every run is in the first pass, and there is one pass per iterate
    assert passes[0] == params
    assert len(passes) == max(len(r.trace) for r in got) == 61
    for got_run, p in zip(got, params):
        _assert_same_fit(got_run, fit(bundle, gram, params=p))


def test_cohort_passes_only_regularized_runs(monkeypatch):
    bundle, gram, params = _cohort_case(40, 4, max_iters=15)
    params[1] = SolverParams(rank=3, lam=0.0, max_iters=15, seed=3)
    params[3] = SolverParams(rank=2, lam=0.0, max_iters=20, rel_tol=1e-12, seed=4)
    passes = _record_passes(monkeypatch)
    got = _fit_cohort_runs(bundle, gram, params)
    assert passes and all(p.lam > 0 for ran in passes for p in ran)
    assert passes[0] == [params[0], params[2]]
    for got_run, p in zip(got, params):
        _assert_same_fit(got_run, fit(bundle, gram, params=p))
    # unregularized runs alone make no product at all
    counts = _count_solver_hooks(monkeypatch)
    passes.clear()
    got = _fit_cohort_runs(bundle, gram, [params[1], params[3]])
    assert passes == [] and counts["products"] == 0
    assert counts["objective"] == sum(len(r.trace) for r in got)


def test_cohort_is_reproducible():
    bundle, gram, params = _cohort_case(120, 4, max_iters=25)
    first = _fit_cohort_runs(bundle, gram, params)
    for got, want in zip(_fit_cohort_runs(bundle, gram, params), first):
        _assert_same_fit(got, want)


def test_cohort_counts_one_product_per_shared_pass(monkeypatch):
    # one product per iterate, 13 for 12 iterations, whether the pass holds
    # 3 runs or a lone fit's 1
    bundle, gram, params = _cohort_case(60, 3, max_iters=12)
    counts = _count_solver_hooks(monkeypatch)
    got = _fit_cohort_runs(bundle, gram, params)
    assert counts["products"] == 13
    assert counts["multiplicative_step"] == 3 * 12 and counts["objective"] == 3 * 13
    assert all(len(r.trace) == 13 for r in got)
    counts.clear()
    assert len(fit(bundle, gram, params=params[0]).trace) == 13
    assert counts["products"] == 13


def test_shared_product_blocks_have_the_solo_layout():
    rng = np.random.default_rng(8)
    gram = random_gram(rng, 70)
    ku, _ = solver._as_kernel(gram)
    runs = [solver._Run(None, None, SolverParams(rank=r), rng.uniform(0.1, 1.1, size=(70, r)),
                        None, [])
            for r in (2, 3, 6)]
    solver._kernel_products(ku, runs)
    for run in runs:
        solo = np.ascontiguousarray(ku @ run.u)
        assert run.ku_u.shape == solo.shape and run.ku_u.strides == solo.strides
        np.testing.assert_allclose(run.ku_u, solo, rtol=1e-12, atol=0)


def test_fit_refuses_arguments_outside_its_cohort():
    bundle, gram, params = _cohort_case(20, 2)
    cohort = solver.Cohort(gram, [(bundle, p) for p in params])
    other = SolverParams(rank=3, lam=1e-2, seed=999)
    with pytest.raises(SolverError, match="cohort"):
        fit(bundle, gram, params=other, cohort=cohort)
    with pytest.raises(SolverError, match="cohort"):
        fit(bundle, random_gram(np.random.default_rng(1), 20), params=params[0], cohort=cohort)


# -- cohorts whose runs carry different bundles ----------------------------------


def _subset_cohort_case(dataset, fractions, **overrides):
    """One Gram of the dataset and, per demonstration fraction, the bundle of
    that subset with its params; the runs differ in bundle and seed."""
    from actionmaps.sideinfo import GramBasis, KernelConfig

    kernel = KernelConfig()
    gram = GramBasis(dataset.location_features(), floor=kernel).gram(kernel)
    runs = []
    for i, fraction in enumerate(fractions):
        subset = dataset.with_demo_fraction(fraction, seed=1)
        params = SolverParams(**{"rank": 3, "lam": 1e-2, "max_iters": 30, "rel_tol": 1e-12,
                                 "seed": 40 + i, **overrides})
        runs.append((build_bundle(subset.scenes, subset.index()), params))
    return gram, runs


def _fit_cohort_of(gram, runs):
    """Each run's fit() call on one cohort of (bundle, params) runs."""
    cohort = solver.Cohort(gram, runs)
    out = []
    for bundle, params in runs:
        try:
            out.append(fit(bundle, gram, params=params, cohort=cohort))
        except (ValueError, RuntimeError) as exc:
            out.append(exc)
    return out


def test_cohort_of_different_bundles_equals_solo_fits(mini_dataset):
    gram, runs = _subset_cohort_case(mini_dataset, [0.25, 0.5, 0.75, 1.0, 0.4])
    assert len({id(bundle) for bundle, _ in runs}) == 5
    for got, (bundle, params) in zip(_fit_cohort_of(gram, runs), runs):
        _assert_same_fit(got, fit(bundle, gram, params=params))


def test_cohort_run_with_wrong_row_count_fails_alone(mini_dataset):
    gram, runs = _subset_cohort_case(mini_dataset, [0.25, 0.5, 1.0])
    m = gram.matrix.shape[0]
    wrong = random_bundle(np.random.default_rng(3), m=m - 1, a=runs[0][0].shape[1])
    runs[1] = (wrong, runs[1][1])
    got = _fit_cohort_of(gram, runs)
    assert isinstance(got[1], SolverError)
    assert str(got[1]) == f"K must be {m - 1}x{m - 1}, got {(m, m)}"
    for k in (0, 2):
        _assert_same_fit(got[k], fit(runs[k][0], gram, params=runs[k][1]))


def test_cohort_of_different_bundles_shares_products(mini_dataset, monkeypatch):
    # one product per iterate for the 3 runs, against one per run per
    # iterate for their solo fits
    gram, runs = _subset_cohort_case(mini_dataset, [0.25, 0.5, 1.0], max_iters=12)
    counts = _count_solver_hooks(monkeypatch)
    got = _fit_cohort_of(gram, runs)
    assert all(len(r.trace) == 13 for r in got)
    assert counts["products"] == 13
    counts.clear()
    assert sum(len(fit(bundle, gram, params=params).trace) for bundle, params in runs) == 39
    assert counts["products"] == 39


def test_fit_refuses_a_bundle_outside_its_cohort(mini_dataset):
    gram, runs = _subset_cohort_case(mini_dataset, [0.5, 1.0])
    cohort = solver.Cohort(gram, runs)
    other = build_bundle(mini_dataset.scenes, mini_dataset.index())
    with pytest.raises(SolverError, match="cohort"):
        fit(other, gram, params=runs[0][1], cohort=cohort)
    with pytest.raises(SolverError, match="cohort"):
        fit(runs[0][0], gram, params=runs[1][1], cohort=cohort)
