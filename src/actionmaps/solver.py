"""Graph-regularized weighted non-negative factorization of action matrices.

The objective is the weighted squared reconstruction error (each weight
multiplies its squared residual) plus one Laplacian smoothness penalty over
the rows of U, weighted by the location kernel K (the graph-regularized NMF
of Cai et al., TPAMI 2011). Multiplicative updates keep the factors
non-negative and never increase the objective.
"""

from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Optional, Sequence

import numpy as np

from actionmaps.scene import GlobalIndex, SceneGrid
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

    @property
    def rank(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class SolverParams:
    rank: int = 6
    lam: float = 1e-3
    max_iters: int = 2000
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # checked by the annotations first, a bool included: a float count
        # would reach numpy as a bare TypeError, and True would count as 1
        for f in fields(self):
            value = getattr(self, f.name)
            kind, noun = (Integral, "an integer") if f.type is int else (Real, "a number")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise SolverError(f"{f.name} must be {noun}, got {value!r}")
        # written so that NaN fails: every comparison with NaN is False
        if not self.rank >= 1:
            raise SolverError("rank must be >= 1")
        if not self.lam >= 0:
            raise SolverError("lambda must be >= 0")
        if not self.rel_tol > 0:
            raise SolverError("rel_tol must be positive")
        if not self.max_iters >= 0:
            raise SolverError("max_iters must be >= 0")


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


def objective(U, V, bundle: ActionMatrixBundle, K, lam: float, ku_u=None) -> float:
    """Weighted squared error plus lam times the Laplacian smoothness of U.

    ku_u, when given, must be K @ U (see laplacian_smoothness).
    """
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise SolverError("factors must be finite")
    if U.shape[0] != bundle.R.shape[0] or V.shape[0] != bundle.R.shape[1]:
        raise SolverError(
            f"factor shapes {U.shape}/{V.shape} incompatible with R {bundle.R.shape}"
        )
    err = bundle.R - U @ V.T
    j = float(np.sum(bundle.W * err * err))
    ku, deg = _as_kernel(K)
    if lam > 0 and ku is not None:
        j += lam * laplacian_smoothness(U, ku, deg, ku_u)
    return j


def multiplicative_step(U, V, bundle: ActionMatrixBundle, K, params: SolverParams, ku_u=None):
    """One regularized multiplicative update of U then V (V sees the new U).

    ku_u, when given, must be K @ U; otherwise the step computes it.
    """
    wr = bundle.W * bundle.R
    ku, deg = _as_kernel(K)

    num_u = wr @ V
    den_u = (bundle.W * (U @ V.T)) @ V
    if params.lam > 0 and ku is not None:
        if ku_u is None:
            ku_u = ku @ U
        num_u = num_u + params.lam * ku_u
        den_u = den_u + params.lam * deg[:, None] * U
    u_new = U * (num_u / (den_u + STABILIZER))

    num_v = wr.T @ u_new
    den_v = (bundle.W * (u_new @ V.T)).T @ u_new
    v_new = V * (num_v / (den_v + STABILIZER))

    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise RuntimeError("multiplicative update produced non-finite values")
    return u_new, v_new


def fit(bundle: ActionMatrixBundle, K, *, params: SolverParams) -> FitResult:
    """Iterate multiplicative updates from a seeded strictly positive init.

    Stops when the relative objective decrease falls below rel_tol or after
    max_iters steps; returns the factors, the per-iteration objective trace
    (the initial objective is trace[0]) and which rule stopped the fit.
    K @ U is computed once per iterate and shared by the objective at that
    iterate and the step from it: len(trace) products in all when lam > 0.
    """
    m, n_act = bundle.shape
    ku, deg = _as_kernel(K)
    if ku is not None and ku.shape != (m, m):
        raise SolverError(f"K must be {m}x{m}, got {ku.shape}")
    if params.lam > 0 and ku is None:
        raise SolverError("lam > 0 requires a location kernel")
    # a non-finite kernel entry makes its row degree non-finite: an O(m) check
    if deg is not None and not np.isfinite(deg).all():
        raise SolverError("K must be finite")
    rng = np.random.default_rng(params.seed)
    u = rng.uniform(0.1, 1.1, size=(m, params.rank))
    v = rng.uniform(0.1, 1.1, size=(n_act, params.rank))
    ku_u = ku @ u if params.lam > 0 else None
    trace = [objective(u, v, bundle, K, params.lam, ku_u)]
    stop_reason = "max_iters"
    for _ in range(params.max_iters):
        u, v = multiplicative_step(u, v, bundle, K, params, ku_u)
        ku_u = ku @ u if params.lam > 0 else None
        j = objective(u, v, bundle, K, params.lam, ku_u)
        trace.append(j)
        prev = trace[-2]
        if prev - j < params.rel_tol * max(abs(prev), 1e-30):
            stop_reason = "tolerance"
            break
    return FitResult(
        factors=FactorPair(U=u, V=v), trace=np.array(trace), stop_reason=stop_reason
    )


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
