"""Graph-regularized weighted non-negative factorization of action matrices.

The objective is the weighted squared reconstruction error (each weight
multiplies its squared residual) plus one Laplacian smoothness penalty over
the rows of U, weighted by the location kernel K (the graph-regularized NMF
of Cai et al., TPAMI 2011). Multiplicative updates keep the factors
non-negative and never increase the objective. Runs on one kernel are
fitted in lockstep as a Cohort, sharing each pass over K.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from actionmaps.scene import GlobalIndex, SceneGrid, check_field_types
from actionmaps.sideinfo import GramMatrix

STABILIZER = 1e-12  # added to every update denominator


class SolverError(ValueError):
    """Invalid solver input."""


@dataclass
class ActionMatrixBundle:
    """Observed matrix R and weight matrix W; the observed entries are W > 0."""

    R: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        if self.R.shape != self.W.shape:
            raise SolverError(f"shape mismatch: R {self.R.shape}, W {self.W.shape}")
        # written so that NaN fails: every comparison with NaN is False
        for name, m in (("R", self.R), ("W", self.W)):
            if not (np.isfinite(m).all() and (m >= 0).all()):
                raise SolverError(f"{name} must be finite and non-negative")
        if self.R[self.W == 0].any():
            raise SolverError("unobserved entries of R must be 0")

    @property
    def shape(self) -> tuple[int, int]:
        return self.R.shape


@dataclass(frozen=True)
class FactorPair:
    """Non-negative factors whose product is the predicted action map."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.U.ndim != 2 or self.V.ndim != 2 or self.U.shape[1] != self.V.shape[1]:
            raise SolverError(
                f"incompatible factor shapes {self.U.shape} and {self.V.shape}"
            )
        for name, m in (("U", self.U), ("V", self.V)):
            if not np.all(np.isfinite(m)) or (m < 0).any():
                raise SolverError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class SolverParams:
    rank: int = 6
    lam: float = 1e-3
    max_iters: int = 2000
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, SolverError)
        # written so that NaN fails: every comparison with NaN is False
        if not self.rank >= 1:
            raise SolverError("rank must be >= 1")
        if not self.lam >= 0:
            raise SolverError("lambda must be >= 0")
        if not self.rel_tol > 0:
            raise SolverError("rel_tol must be positive")
        if not self.max_iters >= 0:
            raise SolverError("max_iters must be >= 0")
        if self.seed < 0:  # the seed is SeedSequence entropy (see _initial_factors)
            raise SolverError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FitResult:
    factors: FactorPair
    trace: np.ndarray
    stop_reason: str  # "tolerance" or "max_iters"


def build_bundle(
    scenes: Sequence[SceneGrid],
    index: GlobalIndex,
    observed_scene_ids: Optional[set[str]] = None,
) -> ActionMatrixBundle:
    """Stacked R (demo values) with its class-imbalance weights W.

    Each observed (location, activity) entry gets 1/n_c where n_c counts that
    activity's observations; explored entries without an observation get
    1/n_z where n_z counts all such observed-empty entries; unexplored
    locations get 0. Scenes outside observed_scene_ids contribute nothing
    (the novel-scene regime).
    """
    n_act = len(index.vocabulary)
    m = index.total_rows
    r = np.zeros((m, n_act))
    observed = np.zeros((m, n_act), dtype=bool)
    explored = np.zeros(m, dtype=bool)
    for scene in scenes:
        if observed_scene_ids is not None and scene.scene_id not in observed_scene_ids:
            continue
        off = index.offsets[scene.scene_id]
        explored[off : off + scene.n_cells] = scene.explored
        demos = scene.demonstrations
        r[off + demos.rows, demos.activities] = demos.values
        observed[off + demos.rows, demos.activities] = True
    w = np.zeros((m, n_act))
    n_c = observed.sum(axis=0)
    for a in range(n_act):
        if n_c[a] > 0:
            w[observed[:, a], a] = 1.0 / n_c[a]
    empty = explored[:, None] & ~observed
    n_z = int(empty.sum())
    if n_z > 0:
        w[empty] = 1.0 / n_z
    return ActionMatrixBundle(R=r, W=w)


class _SymmetricKernel(np.ndarray):
    """Read-only view of a symmetric kernel K whose K @ U runs as (U^T K)^T.

    The two are equal since K = K^T. For an m x m K and an m x r U with small
    r, OpenBLAS runs the second layout about 1.5-2x faster and packs no
    panel of K. Results can differ from K @ U in the last bits at some ranks.
    """

    def __matmul__(self, other):
        return (other.T @ self.view(np.ndarray)).T


def _as_kernel(k: Optional[GramMatrix]) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """(matrix, degrees) of the kernel; only a GramMatrix, which gram()
    certifies symmetric and in [0, 1], keeps the updates monotone."""
    if k is None:
        return None, None
    if not isinstance(k, GramMatrix):
        raise SolverError(f"the kernel must be a GramMatrix or None, got {type(k).__name__}")
    return k.matrix.view(_SymmetricKernel), k.degrees


def laplacian_smoothness(
    mat: np.ndarray, kernel: np.ndarray, degrees: np.ndarray, k_mat=None
) -> float:
    """trace(M^T (Diag(deg) - K) M); equals the half-sum of pairwise
    kernel-weighted squared row differences for symmetric K.

    k_mat, when given, must be kernel @ mat; it spares the O(m^2) product.
    """
    if k_mat is None:
        k_mat = kernel @ mat
    return float(np.sum(mat * mat * degrees[:, None]) - np.sum(mat * k_mat))


def objective(U, V, bundle: ActionMatrixBundle, K, lam: float, ku_u=None, uv=None) -> float:
    """Weighted squared error plus lam times the Laplacian smoothness of U.

    ku_u, when given, must be K @ U (see laplacian_smoothness), and uv,
    when given, U @ V^T.
    """
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise SolverError("factors must be finite")
    if U.shape[0] != bundle.R.shape[0] or V.shape[0] != bundle.R.shape[1]:
        raise SolverError(
            f"factor shapes {U.shape}/{V.shape} incompatible with R {bundle.R.shape}"
        )
    err = bundle.R - (U @ V.T if uv is None else uv)
    j = float(np.sum(bundle.W * err * err))
    ku, deg = _as_kernel(K)
    if lam > 0 and ku is not None:
        j += lam * laplacian_smoothness(U, ku, deg, ku_u)
    return j


def multiplicative_step(U, V, bundle: ActionMatrixBundle, K, params: SolverParams, ku_u=None,
                        wr=None, uv=None):
    """One regularized multiplicative update of U then V (V sees the new U).

    ku_u, wr and uv, when given, must be K @ U, W * R and U @ V^T; otherwise
    the step computes them.
    """
    if wr is None:
        wr = bundle.W * bundle.R
    if uv is None:
        uv = U @ V.T
    ku, deg = _as_kernel(K)

    num_u = wr @ V
    den_u = (bundle.W * uv) @ V
    if params.lam > 0 and ku is not None:
        if ku_u is None:
            ku_u = ku @ U
        num_u += params.lam * ku_u
        den_u += params.lam * deg[:, None] * U
    den_u += STABILIZER
    num_u /= den_u
    u_new = U * num_u

    num_v = wr.T @ u_new
    den_v = (bundle.W * (u_new @ V.T)).T @ u_new
    den_v += STABILIZER
    num_v /= den_v
    v_new = V * num_v

    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise RuntimeError("multiplicative update produced non-finite values")
    return u_new, v_new


MAX_SHARED_RUNS = 4  # runs per shared K·U pass; each pass reads all of K, whatever its width


class Cohort:
    """Runs on one kernel, whatever their bundles, fitted in lockstep.

    Each run calls fit() once with the cohort, its bundle and its params;
    the first call fits every run, and each call returns its own run's
    FitResult or raises its own run's error. A run is keyed by its params
    and its bundle's id, which the cohort keeps alive; equal runs fit once."""

    def __init__(self, K, runs: Sequence[tuple[ActionMatrixBundle, SolverParams]]):
        self.K = K
        self.runs = {(id(bundle), params): (bundle, params) for bundle, params in runs}
        self._outcomes: Optional[dict] = None

    def result(self, bundle: ActionMatrixBundle, K, params: SolverParams) -> FitResult:
        if K is not self.K or (id(bundle), params) not in self.runs:
            raise SolverError("fit() was called with a bundle, kernel or params "
                              "outside its cohort")
        if self._outcomes is None:
            self._outcomes = _fit_cohort(K, list(self.runs.values()))
        outcome = self._outcomes[id(bundle), params]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def fit(bundle: ActionMatrixBundle, K, *, params: SolverParams,
        cohort: Optional[Cohort] = None) -> FitResult:
    """Iterate multiplicative updates from a seeded strictly positive init.

    Stops when the relative objective decrease falls below rel_tol or after
    max_iters steps; returns the factors, the per-iteration objective trace
    (the initial objective is trace[0]) and which rule stopped the fit.
    K @ U is computed once per iterate and shared by the objective at that
    iterate and the step from it. A fit alone is a cohort of one and makes
    len(trace) products when lam > 0; in a cohort, up to MAX_SHARED_RUNS
    runs share each product (see _fit_cohort), with the same results.
    """
    if cohort is None:
        cohort = Cohort(K, [(bundle, params)])
    return cohort.result(bundle, K, params)


@dataclass
class _Run:
    """One run of a cohort: its bundle, W * R, params, factors, K @ U, trace."""

    bundle: ActionMatrixBundle
    wr: np.ndarray
    params: SolverParams
    u: np.ndarray
    v: np.ndarray
    trace: list
    ku_u: Optional[np.ndarray] = None

    def stop_reason(self) -> Optional[str]:
        trace, p = self.trace, self.params
        if len(trace) > 1 and trace[-2] - trace[-1] < p.rel_tol * max(abs(trace[-2]), 1e-30):
            return "tolerance"
        return "max_iters" if len(trace) > p.max_iters else None


def _fit_cohort(K, runs: Sequence[tuple[ActionMatrixBundle, SolverParams]]) -> dict:
    """(id(bundle), params) -> FitResult, or the error that failed that run alone.

    Regularized runs go in batches of up to MAX_SHARED_RUNS, the others alone.
    A failed or finished run leaves its batch; the others go on.
    """
    ku, deg = _as_kernel(K)
    # a non-finite kernel entry makes its row degree non-finite: an O(m) check
    if deg is not None and not np.isfinite(deg).all():
        raise SolverError("K must be finite")
    outcomes: dict = {}
    shared, alone = [], []
    for bundle, params in runs:
        m = bundle.shape[0]
        if ku is not None and ku.shape != (m, m):
            outcomes[id(bundle), params] = SolverError(f"K must be {m}x{m}, got {ku.shape}")
        elif params.lam > 0 and ku is None:
            outcomes[id(bundle), params] = SolverError("lam > 0 requires a location kernel")
        else:
            (shared if params.lam > 0 else alone).append((bundle, params))
    batches = [shared[i : i + MAX_SHARED_RUNS] for i in range(0, len(shared), MAX_SHARED_RUNS)]
    for batch in batches + [[run] for run in alone]:
        outcomes.update(_fit_lockstep(K, ku, batch))
    return outcomes


def _fit_lockstep(K, ku, batch: list[tuple[ActionMatrixBundle, SolverParams]]) -> dict:
    """Fit the runs of one batch iteration by iteration (see _kernel_products)."""
    runs, wrs = [], {}  # W * R once per distinct bundle
    for bundle, params in batch:
        if id(bundle) not in wrs:
            wrs[id(bundle)] = bundle.W * bundle.R
        u, v = _initial_factors(params.seed, *bundle.shape, params.rank)
        runs.append(_Run(bundle, wrs[id(bundle)], params, u, v, []))
    outcomes: dict = {}
    shares: dict[int, bool] = {}
    while runs:
        if batch[0][1].lam > 0:  # an unregularized run is alone and needs no K @ U
            _kernel_products(ku, runs, shares)
        going = []
        for run in runs:
            key = id(run.bundle), run.params
            # the objective at this iterate and the step from it share U @ V^T
            uv = run.u @ run.v.T
            run.trace.append(objective(run.u, run.v, run.bundle, K, run.params.lam, run.ku_u, uv))
            stop_reason = run.stop_reason()
            if stop_reason is not None:
                outcomes[key] = FitResult(FactorPair(U=run.u, V=run.v),
                                          np.array(run.trace), stop_reason)
                continue
            try:
                run.u, run.v = multiplicative_step(run.u, run.v, run.bundle, K, run.params,
                                                   run.ku_u, run.wr, uv)
            except (ValueError, RuntimeError) as exc:  # fails this run alone
                outcomes[key] = exc
                continue
            going.append(run)
        runs = going
    return outcomes


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's multiplier a
_POW = [pow(_PCG_MULT, r, 1 << 128) for r in range(64)]  # a^r mod 2^128
_GEOM = [sum(_POW[:r]) & _M128 for r in range(64)]  # G_r = sum of a^j over j < r


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of 128-bit ints, as uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


_POW_HI, _POW_LO = _limbs(_POW)


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64): the entropy
    is seed in little-endian 32-bit words, hashed into a 4-word pool."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        h, v = h * 0x931E8875 & _M32, v ^ h
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):  # mix every pool word into every other
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:  # then any entropy beyond the pool into each word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out, h = [], 0x8B51F9DD
    for i in range(8):
        h, v = h * 0x58F38DED & _M32, pool[i % 4] ^ h
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [out[i] | out[i + 1] << 32 for i in (0, 2, 4, 6)]


def _initial_factors(seed: int, m: int, n_act: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """U (m x rank) and V (n_act x rank), bit for bit what
    np.random.default_rng(seed).uniform(0.1, 1.1, size) draws for U, then V.

    The stream is PCG64 (O'Neill 2014), seeded as numpy seeds it, computed
    here so that no fit loads numpy.random. State i + r is a^r s_i + G_r inc:
    the start of every 64th draw is stepped in Python ints, and each block
    in numpy with (hi, lo) uint64 limbs.
    """
    w = _seed_words(int(seed))
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128
    n, starts = (m + n_act) * rank, []
    for _ in range(-(-n // 64)):  # each draw steps the state, then outputs
        state = (state * _PCG_MULT + inc) & _M128
        starts.append(state)
        state = (state * _POW[63] + _GEOM[63] * inc) & _M128
    s_hi, s_lo = (a[:, None] for a in _limbs(starts))
    c_hi, c_lo = _limbs([g * inc & _M128 for g in _GEOM])
    # the high word of the 128-bit products _POW_LO * s_lo, from 32-bit halves
    a0, a1, b0, b1 = _POW_LO & _M32, _POW_LO >> 32, s_lo & _M32, s_lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + _POW_HI * s_lo + _POW_LO * s_hi
    lo = _POW_LO * s_lo + c_lo
    hi += c_hi + (lo < c_lo)  # with the carry of the low words
    x, rot = (hi ^ lo).ravel()[:n], (hi >> 58).ravel()[:n]  # XSL-RR output
    x = x >> rot | x << (64 - rot & 63)
    draws = 0.1 + (1.1 - 0.1) * ((x >> 11) * 2.0 ** -53)
    # V gets a buffer of its own, as numpy's draw does, so no product of V
    # sees another alignment
    return draws[: m * rank].reshape(m, rank), draws[m * rank :].reshape(n_act, rank).copy()


def _kernel_products(ku, runs: list[_Run], shares: dict[int, bool]) -> None:
    """Set each run's K @ U from one shared (U^T K)^T pass over the stacked
    factors, where a probe showed that pass equal to the solo products.

    Whether the blocks of a shared pass equal the solo products bit for bit
    depends on the BLAS path OpenBLAS takes for the shape and thread count,
    not on the values. So the first time the batch has a given number of
    runs (at the start, and after one leaves), every run takes its solo
    product and one shared pass is compared with them; shares records the
    verdict per number of runs, and a failed probe keeps the solo products.
    Each run's K @ U is held C-contiguous, as U is, so the updates combine
    the two without strided loops; every sum over their products runs in
    the same order as with the product's own layout.
    """
    if len(runs) > 1 and shares.get(len(runs)):
        for run, block in zip(runs, _shared_product(ku, runs)):
            run.ku_u = np.ascontiguousarray(block)
        return
    for run in runs:
        run.ku_u = np.ascontiguousarray(ku @ run.u)
    if len(runs) > 1 and len(runs) not in shares:
        blocks = _shared_product(ku, runs)
        shares[len(runs)] = all(np.array_equal(b, run.ku_u) for b, run in zip(blocks, runs))


def _shared_product(ku, runs: list[_Run]) -> list[np.ndarray]:
    """Each run's block of K @ [U_1 ... U_B]. The kernel view computes it as
    (S K)^T with S the stacked U_i^T, so a block is rows of S K transposed:
    the memory layout of a solo product, which later sums depend on."""
    product = ku @ np.concatenate([run.u.T for run in runs]).T
    ends = np.cumsum([run.params.rank for run in runs])
    return [product[:, end - run.params.rank : end] for run, end in zip(runs, ends)]


def predict(factors: FactorPair) -> np.ndarray:
    """Dense predicted action map UV^T (non-negative by construction)."""
    return factors.U @ factors.V.T


def normalize_action_map(am: np.ndarray) -> np.ndarray:
    """Scale each activity column to [0, 1] by its max; zero columns stay zero."""
    out = am.astype(float).copy()
    top = out.max(axis=0)
    nz = top > 0
    out[:, nz] /= top[nz]
    return out
