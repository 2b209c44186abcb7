"""Per-location side-information and the combined similarity Gram matrix.

All m locations travel as one record of stacked arrays: 2D grid coordinates,
a scene-class score vector p, an object score vector o, and a scene code per
location. Pairwise similarity mixes a spatial RBF kernel with chi-squared
kernels on p and o; the object kernel is forced to zero when either location
has no object evidence, and the spatial kernel is zero across scenes (scene
coordinate frames are unrelated).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

VARIANTS = ("S", "SO", "SP", "SOP")
OBJECT_KERNEL_RADIUS = math.sqrt(2.0)  # grid cells


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
    single active kernel in SO/SP).
    """

    alpha: float = 0.5
    sigma_s: float = 2.0
    gamma_p: float = 1.0
    gamma_o: float = 1.0
    variant: str = "SOP"
    chi2_epsilon: float = 1e-10
    tau: float = 1e-4
    max_dense: int = 20000

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise SideInfoError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.sigma_s <= 0 or self.gamma_p <= 0 or self.gamma_o <= 0:
            raise SideInfoError("kernel bandwidths must be positive")
        if self.variant not in VARIANTS:
            raise SideInfoError(f"variant must be one of {VARIANTS}, got {self.variant}")
        if self.tau < 0:
            raise SideInfoError("sparsification threshold must be >= 0")


@dataclass
class GramMatrix:
    """Symmetric location-similarity matrix with its row-sum degree vector."""

    matrix: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SideInfoError(f"Gram matrix must be square, got {m.shape}")
        if m.size and (float(m.min()) < -1e-12 or float(m.max()) > 1.0 + 1e-9):
            raise SideInfoError("Gram entries must lie in [0, 1]")
        if m.size and np.abs(m - m.T).max() > 1e-9:
            raise SideInfoError("Gram matrix must be symmetric")

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
    ii, jj = np.meshgrid(np.arange(width), np.arange(height), indexing="ij")
    centers = np.stack([ii.reshape(-1) + 0.5, jj.reshape(-1) + 0.5], axis=1)
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
    across parameter sweeps (the chi-squared guard epsilon is pinned here)."""

    def __init__(self, features: LocationFeatures, chi2_epsilon: float = 1e-10):
        self.m = features.x.shape[0]
        codes = features.scene_codes
        self.same_scene = codes[:, None] == codes[None, :]
        d = features.x[:, None, :] - features.x[None, :, :]
        self.spatial_sq = (d * d).sum(axis=2)
        self.chi2_p = _chi2_distances(features.p, chi2_epsilon)
        self.chi2_o = _chi2_distances(features.o, chi2_epsilon)
        has = (features.o > 0).any(axis=1)
        self.object_pair = has[:, None] & has[None, :]

    def gram(self, cfg: KernelConfig) -> GramMatrix:
        if self.m > cfg.max_dense:
            raise SideInfoError(
                f"{self.m} locations exceed the dense Gram cap of {cfg.max_dense}; "
                "raise max_dense or sparsify the input"
            )
        ks = np.where(
            self.same_scene,
            np.exp(-self.spatial_sq / (2.0 * cfg.sigma_s * cfg.sigma_s)),
            0.0,
        )
        if cfg.variant == "S":
            k = ks
        else:
            alpha = cfg.alpha
            if cfg.variant == "SO":
                ko = np.where(self.object_pair, np.exp(-cfg.gamma_o * self.chi2_o), 0.0)
                k = (1.0 - alpha) * ks + alpha * ko
            elif cfg.variant == "SP":
                kp = np.exp(-cfg.gamma_p * self.chi2_p)
                k = (1.0 - alpha) * ks + alpha * kp
            else:
                kp = np.exp(-cfg.gamma_p * self.chi2_p)
                ko = np.where(self.object_pair, np.exp(-cfg.gamma_o * self.chi2_o), 0.0)
                k = (1.0 - alpha) * ks + 0.5 * alpha * kp + 0.5 * alpha * ko
        if cfg.tau > 0:
            k[k < cfg.tau] = 0.0
        return GramMatrix(matrix=k, degrees=k.sum(axis=1))


def _chi2_distances(vectors: np.ndarray, epsilon: float = 1e-10) -> np.ndarray:
    """Pairwise chi-squared distances, accumulated one feature dim at a time."""
    m = vectors.shape[0]
    out = np.zeros((m, m))
    for c in range(vectors.shape[1]):
        col = vectors[:, c]
        diff = col[:, None] - col[None, :]
        out += diff * diff / (col[:, None] + col[None, :] + epsilon)
    return out
