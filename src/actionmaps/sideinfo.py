"""Per-location side-information and the combined similarity Gram matrix.

All m locations travel as one record of stacked arrays: 2D grid coordinates,
a scene-class score vector p, an object score vector o, and a scene code per
location. Pairwise similarity mixes a spatial RBF kernel with chi-squared
kernels on p and o; the object kernel is forced to zero when either location
has no object evidence, and the spatial kernel is zero across scenes (scene
coordinate frames are unrelated).
"""

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from actionmaps.scene import grid_coords

VARIANTS = ("S", "SO", "SP", "SOP")
OBJECT_KERNEL_RADIUS = math.sqrt(2.0)  # grid cells
MAX_DENSE_LOCATIONS = 20000  # GramBasis refuses more locations than this


class SideInfoError(ValueError):
    """Invalid feature vectors or kernel configuration."""


@dataclass(frozen=True)
class LocationFeatures:
    """Side-information of all m locations as stacked arrays: grid coordinates
    x (m, 2), scene-class scores p (m, C), object scores o (m, F), and integer
    scene codes (m,); locations with different codes are in different scenes."""

    x: np.ndarray
    p: np.ndarray
    o: np.ndarray
    scene_codes: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        o = np.asarray(self.o, dtype=float)
        codes = np.asarray(self.scene_codes, dtype=int)
        shapes = f"x {x.shape}, p {p.shape}, o {o.shape}, scene codes {codes.shape}"
        if x.ndim != 2 or x.shape[1] != 2 or p.ndim != 2 or o.ndim != 2 or codes.ndim != 1:
            raise SideInfoError(f"need x (m, 2), p (m, C), o (m, F), codes (m,); got {shapes}")
        if not x.shape[0] == p.shape[0] == o.shape[0] == codes.shape[0]:
            raise SideInfoError(f"row counts differ across feature arrays: {shapes}")
        if x.shape[0] == 0:
            raise SideInfoError("need at least one location")
        if not (np.isfinite(x).all() and np.isfinite(p).all() and np.isfinite(o).all()):
            raise SideInfoError("feature vectors must be finite")
        if (p < 0).any() or (o < 0).any():
            raise SideInfoError("feature vectors must be non-negative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "o", o)
        object.__setattr__(self, "scene_codes", codes)


@dataclass(frozen=True)
class KernelConfig:
    """Mixing weight, bandwidths, and the active side-information variant.

    Variants: S spatial only; SO spatial+objects; SP spatial+scene classes;
    SOP all three (objects and classes each weighted alpha/2, alpha for the
    single active kernel in SO/SP). One chi-squared bandwidth gamma serves
    both the scene-class and the object kernel, whose distances share the
    fixed guard chi2_epsilon.
    """

    alpha: float = 0.5
    sigma_s: float = 2.0
    gamma: float = 1.0
    variant: str = "SOP"
    tau: float = 1e-4
    chi2_epsilon: ClassVar[float] = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise SideInfoError(f"alpha must be in [0, 1], got {self.alpha}")
        # written so that NaN fails: every comparison with NaN is False
        if not (self.sigma_s > 0 and self.gamma > 0):
            raise SideInfoError("kernel bandwidths must be positive")
        if self.variant not in VARIANTS:
            raise SideInfoError(f"variant must be one of {VARIANTS}, got {self.variant}")
        if not self.tau >= 0:
            raise SideInfoError("sparsification threshold must be >= 0")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric location-similarity matrix with its row-sum degree vector,
    derived from the matrix on construction. Both are frozen and read-only,
    so the construction checks hold for the object's lifetime."""

    matrix: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SideInfoError(f"Gram matrix must be square, got {m.shape}")
        # written so that NaN entries fail: every comparison with NaN is False
        if m.size and not (float(m.min()) >= -1e-12 and float(m.max()) <= 1.0 + 1e-9):
            raise SideInfoError("Gram entries must lie in [0, 1]")
        if m.size and _max_asymmetry(m) > 1e-9:
            raise SideInfoError("Gram matrix must be symmetric")
        degrees = m.sum(axis=1)
        m.setflags(write=False)
        degrees.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def aggregate_object_scores(
    grid_shape: tuple[int, int],
    detections: Sequence[tuple[int, tuple[float, float]]],
    n_categories: int,
    radius: float = OBJECT_KERNEL_RADIUS,
) -> np.ndarray:
    """Max Gaussian-weighted detection score per (cell, category).

    Detections are (category index, continuous grid point); distances are
    taken from cell centers. Returns a (width*height, F) array.
    """
    width, height = grid_shape
    out = np.zeros((width * height, n_categories))
    if not detections:
        return out
    centers = grid_coords(width, height) + 0.5
    r2 = radius * radius
    peak = 1.0 / math.sqrt(2.0 * r2 * math.pi)
    for cat, point in detections:
        if not 0 <= cat < n_categories:
            raise SideInfoError(f"unknown object category index {cat}")
        z = np.hypot(centers[:, 0] - point[0], centers[:, 1] - point[1])
        score = np.where(z <= radius, peak * np.exp(-(z * z) / (2.0 * r2)), 0.0)
        out[:, cat] = np.maximum(out[:, cat], score)
    return out


class GramBasis:
    """Pairwise distances that do not depend on alpha/gamma/sigma, reusable
    across parameter sweeps (the chi-squared guard epsilon is pinned here).

    Every kernel term is symmetric, so only the upper triangle is held, in
    the 64-row blocks that gram() writes. Each term packs its blocks into one
    flat array; block i starts at offsets[i]. For the block of rows lo:hi:
    chi2_p covers columns lo:m; spatial_sq covers columns lo:end, where end
    is one past the last row of every scene with rows in the block (the
    spatial term is zero across scenes), and holds +inf for pairs in
    different scenes inside that range; chi2_o covers the block's object rows
    (object_rows[object_starts[i]:object_starts[i + 1]], the rows with object
    evidence) against the object rows >= lo. Refuses more than
    MAX_DENSE_LOCATIONS locations before allocating anything.
    """

    def __init__(self, features: LocationFeatures, chi2_epsilon=KernelConfig.chi2_epsilon):
        self.m = m = features.x.shape[0]
        if m > MAX_DENSE_LOCATIONS:
            raise SideInfoError(
                f"{m} locations exceed the dense Gram cap of {MAX_DENSE_LOCATIONS}; "
                "use fewer or smaller scenes"
            )
        bounds = np.append(np.arange(0, m, _ROW_BLOCK), m)
        _, scene = np.unique(features.scene_codes, return_inverse=True)
        scene_end = np.zeros(scene.max() + 1, dtype=np.intp)
        np.maximum.at(scene_end, scene, np.arange(1, m + 1))
        ends = np.maximum.reduceat(scene_end[scene], bounds[:-1])
        self.spatial_sq, self.spatial_offsets = _spatial_sq(features.x, scene, bounds, ends)
        self.chi2_p, self.chi2_p_offsets = _chi2_distances(features.p, chi2_epsilon, bounds)
        self.object_rows = np.flatnonzero((features.o > 0).any(axis=1))
        self.object_starts = np.searchsorted(self.object_rows, bounds)
        self.chi2_o, self.chi2_o_offsets = _chi2_distances(
            features.o[self.object_rows], chi2_epsilon, self.object_starts
        )

    def gram(self, cfg: KernelConfig) -> GramMatrix:
        """Entries are (w kp + (1 - alpha) ks) + w ko, with w = alpha for SO/SP
        and alpha/2 for SOP; kp is zero for S and SO, ks is not scaled for S,
        and ko is zero unless both locations have objects. Each 64-row block
        is written over columns lo:m, thresholded, then mirrored below the
        diagonal, into one m x m output."""
        m, variant, alpha = self.m, cfg.variant, cfg.alpha
        w = 0.5 * alpha if variant == "SOP" else alpha
        rows, starts = self.object_rows, self.object_starts
        k = np.empty((m, m))
        scratch = np.empty((min(_ROW_BLOCK, m), m))
        for i, (lo, hi) in enumerate(_blocks(m)):
            kb = k[lo:hi, lo:]
            if variant in ("SP", "SOP"):
                chi2 = _block(self.chi2_p, self.chi2_p_offsets, i, hi - lo)
                np.multiply(chi2, -cfg.gamma, out=kb)
                np.exp(kb, out=kb)
                kb *= w
            else:
                kb.fill(0.0)
            sq = _block(self.spatial_sq, self.spatial_offsets, i, hi - lo)
            ks = scratch[: hi - lo, : sq.shape[1]]
            np.negative(sq, out=ks)
            ks /= 2.0 * cfg.sigma_s * cfg.sigma_s
            np.exp(ks, out=ks)
            if variant != "S":
                ks *= 1.0 - alpha
            kb[:, : sq.shape[1]] += ks
            a, b = starts[i], starts[i + 1]
            if variant in ("SO", "SOP") and b > a:
                ko = scratch[: b - a, : rows.size - a]
                chi2 = _block(self.chi2_o, self.chi2_o_offsets, i, b - a)
                np.multiply(chi2, -cfg.gamma, out=ko)
                np.exp(ko, out=ko)
                ko *= w
                kb[np.ix_(rows[a:b] - lo, rows[a:] - lo)] += ko
            if cfg.tau > 0:
                kb[kb < cfg.tau] = 0.0
            k[hi:, lo:hi] = kb[:, hi - lo :].T
        return GramMatrix(matrix=k)


_ROW_BLOCK = 64  # rows per block of an m x m array: scratch is _ROW_BLOCK x m
_TILE = 128  # side of the square tiles compared by the symmetry check


def _blocks(n: int):
    """(lo, hi) bounds of consecutive row blocks covering range(n)."""
    return ((lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK))


def _packed(bounds: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A zeroed flat array for blocks i of rows bounds[i]:bounds[i + 1] and
    columns bounds[i]:ends[i], with the offset where each block starts."""
    sizes = np.diff(bounds) * (ends - bounds[:-1])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return np.zeros(offsets[-1]), offsets


def _block(flat: np.ndarray, offsets: np.ndarray, i: int, rows: int) -> np.ndarray:
    """Block i of a packed array as a (rows, columns) view."""
    return flat[offsets[i] : offsets[i + 1]].reshape(rows, -1)


def _spatial_sq(x, scene, bounds, ends) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances dx^2 + dy^2 of 2D coordinates in packed blocks of
    rows bounds[i]:bounds[i + 1] and columns bounds[i]:ends[i]; +inf where
    the scene indices of the two rows differ."""
    out, offsets = _packed(bounds, ends)
    x0, x1 = x[:, 0], x[:, 1]
    dy = np.empty((min(_ROW_BLOCK, x.shape[0]), x.shape[0]))
    for i, (lo, hi, end) in enumerate(zip(bounds[:-1], bounds[1:], ends)):
        sq, d = _block(out, offsets, i, hi - lo), dy[: hi - lo, : end - lo]
        np.subtract.outer(x0[lo:hi], x0[lo:end], out=sq)
        sq *= sq
        np.subtract.outer(x1[lo:hi], x1[lo:end], out=d)
        d *= d
        sq += d
        sq[scene[lo:hi, None] != scene[None, lo:end]] = np.inf
    return out, offsets


def _chi2_distances(vectors: np.ndarray, epsilon: float, bounds: np.ndarray):
    """Pairwise chi-squared distances in packed blocks of rows
    bounds[i]:bounds[i + 1] and columns bounds[i]:n, with the block offsets;
    accumulated one feature dim at a time through two block-sized scratch
    buffers."""
    n = vectors.shape[0]
    out, offsets = _packed(bounds, np.full(len(bounds) - 1, n))
    cols = np.ascontiguousarray(vectors.T)
    diff = np.empty((np.diff(bounds).max(initial=0), n))
    den = np.empty_like(diff)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi == lo:
            continue
        block = _block(out, offsets, i, hi - lo)
        d, s = diff[: hi - lo, : n - lo], den[: hi - lo, : n - lo]
        for col in cols:
            np.subtract.outer(col[lo:hi], col[lo:], out=d)
            d *= d
            np.add.outer(col[lo:hi], col[lo:], out=s)
            s += epsilon
            d /= s
            block += d
    return out, offsets


def _max_asymmetry(a: np.ndarray) -> float:
    """max |a - a.T| over a square matrix, compared tile pair by tile pair
    over the upper triangle, so no m x m temporary is allocated."""
    n = a.shape[0]
    worst = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = a[i : i + _TILE, j : j + _TILE]
            lower = a[j : j + _TILE, i : i + _TILE]
            worst = max(worst, float(np.abs(upper - lower.T).max()))
    return worst
