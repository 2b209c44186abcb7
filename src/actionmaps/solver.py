"""Graph-regularized weighted non-negative factorization of action matrices.

The objective is the weighted squared reconstruction error (each weight
multiplies its squared residual) plus Laplacian smoothness penalties over the
rows of U (location similarities) and of V (activity similarities, identity
by default, i.e. no penalty). Multiplicative updates keep the factors
non-negative and never increase the objective.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from actionmaps.scene import GlobalIndex, SceneGrid
from actionmaps.sideinfo import GramMatrix


class SolverError(ValueError):
    """Invalid solver input."""


@dataclass
class ActionMatrixBundle:
    """Observed matrix R, weight matrix W, and the observed-entry mask."""

    R: np.ndarray
    W: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.R.shape != self.W.shape or self.R.shape != self.mask.shape:
            raise SolverError(
                f"shape mismatch: R {self.R.shape}, W {self.W.shape}, mask {self.mask.shape}"
            )
        if (self.R < 0).any() or (self.W < 0).any():
            raise SolverError("R and W must be non-negative")
        if not np.array_equal(self.mask, self.W > 0):
            raise SolverError("mask must indicate exactly the entries with W > 0")
        if self.R[~self.mask].any():
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
    mu: float = 0.0
    max_iters: int = 2000
    rel_tol: float = 1e-6
    epsilon_stab: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise SolverError("rank must be >= 1")
        if self.lam < 0 or self.mu < 0:
            raise SolverError("lambda and mu must be >= 0")
        if self.rel_tol <= 0:
            raise SolverError("rel_tol must be positive")


@dataclass
class FitResult:
    factors: FactorPair
    trace: np.ndarray


def build_weight_matrix(
    scenes: Sequence[SceneGrid],
    index: GlobalIndex,
    observed_scene_ids: Optional[set[str]] = None,
) -> np.ndarray:
    """Class-imbalance weights over the stacked location-by-activity matrix.

    Each observed (location, activity) entry gets 1/n_c where n_c counts that
    activity's observations; explored entries without an observation get
    1/n_z where n_z counts all such observed-empty entries; unexplored
    locations get 0. Scenes outside observed_scene_ids contribute nothing
    (the novel-scene regime).
    """
    n_act = len(index.vocabulary)
    m = index.total_rows
    observed = np.zeros((m, n_act), dtype=bool)
    explored = np.zeros(m, dtype=bool)
    for scene in scenes:
        if observed_scene_ids is not None and scene.scene_id not in observed_scene_ids:
            continue
        off = index.offsets[scene.scene_id]
        explored[off : off + scene.n_cells] = scene.explored_rows()
        for demo in scene.demonstrations:
            observed[off + scene.row_of(demo.cell), demo.activity] = True
    w = np.zeros((m, n_act))
    n_c = observed.sum(axis=0)
    for a in range(n_act):
        if n_c[a] > 0:
            w[observed[:, a], a] = 1.0 / n_c[a]
    empty = explored[:, None] & ~observed
    n_z = int(empty.sum())
    if n_z > 0:
        w[empty] = 1.0 / n_z
    return w


def build_bundle(
    scenes: Sequence[SceneGrid],
    index: GlobalIndex,
    observed_scene_ids: Optional[set[str]] = None,
) -> ActionMatrixBundle:
    """Stacked R (demo values) with its weight matrix and observation mask."""
    n_act = len(index.vocabulary)
    r = np.zeros((index.total_rows, n_act))
    for scene in scenes:
        if observed_scene_ids is not None and scene.scene_id not in observed_scene_ids:
            continue
        off = index.offsets[scene.scene_id]
        for demo in scene.demonstrations:
            r[off + scene.row_of(demo.cell), demo.activity] = demo.value
    w = build_weight_matrix(scenes, index, observed_scene_ids)
    return ActionMatrixBundle(R=r, W=w, mask=w > 0)


def _as_kernel(k) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    if k is None:
        return None, None
    if isinstance(k, GramMatrix):
        return k.matrix, k.degrees
    k = np.asarray(k, dtype=float)
    return k, k.sum(axis=1)


def laplacian_smoothness(mat: np.ndarray, kernel: np.ndarray, degrees: np.ndarray) -> float:
    """trace(M^T (Diag(deg) - K) M); equals the half-sum of pairwise
    kernel-weighted squared row differences for symmetric K."""
    return float(np.sum(mat * mat * degrees[:, None]) - np.sum(mat * (kernel @ mat)))


def objective(U, V, bundle: ActionMatrixBundle, K_U, K_V, lam: float, mu: float) -> float:
    """Weighted squared error plus the Laplacian smoothness penalties."""
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise SolverError("factors must be finite")
    if U.shape[0] != bundle.R.shape[0] or V.shape[0] != bundle.R.shape[1]:
        raise SolverError(
            f"factor shapes {U.shape}/{V.shape} incompatible with R {bundle.R.shape}"
        )
    err = bundle.R - U @ V.T
    j = float(np.sum(bundle.W * err * err))
    ku, deg_u = _as_kernel(K_U)
    if lam > 0 and ku is not None:
        j += lam * laplacian_smoothness(U, ku, deg_u)
    kv, deg_v = _as_kernel(K_V)
    if mu > 0 and kv is not None:
        j += mu * laplacian_smoothness(V, kv, deg_v)
    return j


def multiplicative_step(
    U, V, bundle: ActionMatrixBundle, K_U, K_V, params: SolverParams
):
    """One regularized multiplicative update of U then V (V sees the new U)."""
    eps = params.epsilon_stab
    wr = bundle.W * bundle.R
    ku, deg_u = _as_kernel(K_U)
    kv, deg_v = _as_kernel(K_V)

    num_u = wr @ V
    den_u = (bundle.W * (U @ V.T)) @ V
    if params.lam > 0 and ku is not None:
        num_u = num_u + params.lam * (ku @ U)
        den_u = den_u + params.lam * deg_u[:, None] * U
    u_new = U * (num_u / (den_u + eps))

    num_v = wr.T @ u_new
    den_v = (bundle.W * (u_new @ V.T)).T @ u_new
    if params.mu > 0 and kv is not None:
        num_v = num_v + params.mu * (kv @ V)
        den_v = den_v + params.mu * deg_v[:, None] * V
    v_new = V * (num_v / (den_v + eps))

    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise RuntimeError("multiplicative update produced non-finite values")
    return u_new, v_new


def fit(bundle: ActionMatrixBundle, K_U, K_V, params: SolverParams) -> FitResult:
    """Iterate multiplicative updates from a seeded strictly positive init.

    Stops when the relative objective decrease falls below rel_tol or after
    max_iters steps; returns the factors and the per-iteration objective
    trace (the initial objective is trace[0]).
    """
    m, n_act = bundle.shape
    ku, _ = _as_kernel(K_U)
    if ku is not None and ku.shape != (m, m):
        raise SolverError(f"K_U must be {m}x{m}, got {ku.shape}")
    if params.lam > 0 and ku is None:
        raise SolverError("lam > 0 requires a location kernel")
    kv, _ = _as_kernel(K_V)
    if kv is not None and kv.shape != (n_act, n_act):
        raise SolverError(f"K_V must be {n_act}x{n_act}, got {kv.shape}")
    if params.mu > 0 and kv is None:
        raise SolverError("mu > 0 requires an activity kernel")
    rng = np.random.default_rng(params.seed)
    u = rng.uniform(0.1, 1.1, size=(m, params.rank))
    v = rng.uniform(0.1, 1.1, size=(n_act, params.rank))
    trace = [objective(u, v, bundle, K_U, K_V, params.lam, params.mu)]
    for _ in range(params.max_iters):
        u, v = multiplicative_step(u, v, bundle, K_U, K_V, params)
        j = objective(u, v, bundle, K_U, K_V, params.lam, params.mu)
        trace.append(j)
        prev = trace[-2]
        if prev - j < params.rel_tol * max(abs(prev), 1e-30):
            break
    return FitResult(factors=FactorPair(U=u, V=v), trace=np.array(trace))


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
