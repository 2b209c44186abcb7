"""Scalar pairwise kernels: the per-pair definition of the location similarity.

These are test oracles for `GramBasis.gram`, which computes the same kernel
for all pairs at once from the stacked `LocationFeatures` arrays. A
`Location` is one row of that record.
"""

import math
from dataclasses import dataclass

import numpy as np

from actionmaps.sideinfo import (
    OBJECT_KERNEL_RADIUS,
    KernelConfig,
    LocationFeatures,
    SideInfoError,
)


@dataclass(frozen=True)
class Location:
    """Side-information of one grid location."""

    x: tuple[float, float]
    p: np.ndarray
    o: np.ndarray
    scene_id: object = ""

    @property
    def has_object(self) -> bool:
        return bool((np.asarray(self.o) > 0).any())


def locations(features: LocationFeatures) -> list[Location]:
    """Split a stacked record into one Location per row."""
    return [
        Location(x=tuple(features.x[k]), p=features.p[k], o=features.o[k],
                 scene_id=int(features.scene_codes[k]))
        for k in range(features.x.shape[0])
    ]


def stack(locs) -> LocationFeatures:
    """Stack Locations into one record; scene ids become integer codes."""
    codes = {s: k for k, s in enumerate(dict.fromkeys(loc.scene_id for loc in locs))}
    return LocationFeatures(
        x=np.array([loc.x for loc in locs], dtype=float).reshape(-1, 2),
        p=np.array([loc.p for loc in locs], dtype=float),
        o=np.array([loc.o for loc in locs], dtype=float),
        scene_codes=np.array([codes[loc.scene_id] for loc in locs], dtype=int),
    )


def object_score(z: float, radius: float = OBJECT_KERNEL_RADIUS) -> float:
    """Gaussian floor-distance weighting of one detection; 0 beyond the radius."""
    if z > radius:
        return 0.0
    r2 = radius * radius
    return math.exp(-(z * z) / (2.0 * r2)) / math.sqrt(2.0 * r2 * math.pi)


def kernel_spatial(x_a, x_b, sigma_s: float, same_scene: bool = True) -> float:
    """RBF similarity of two grid positions; zero across scenes."""
    if not same_scene:
        return 0.0
    dx = float(x_a[0]) - float(x_b[0])
    dy = float(x_a[1]) - float(x_b[1])
    return math.exp(-(dx * dx + dy * dy) / (2.0 * sigma_s * sigma_s))


def kernel_chi2(u, v, gamma: float, epsilon: float = 1e-10) -> float:
    """Exponential chi-squared similarity of two non-negative vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise SideInfoError(f"length mismatch: {u.shape} vs {v.shape}")
    if (u < 0).any() or (v < 0).any():
        raise SideInfoError("chi-squared kernel requires non-negative entries")
    diff = u - v
    dist = float(np.sum(diff * diff / (u + v + epsilon)))
    return math.exp(-gamma * dist)


def combined_kernel(a: Location, b: Location, cfg: KernelConfig) -> float:
    """Variant-weighted mix of spatial, scene-class, and object similarities."""
    same = a.scene_id == b.scene_id
    ks = kernel_spatial(a.x, b.x, cfg.sigma_s, same)
    if cfg.variant == "S":
        return ks
    alpha = cfg.alpha
    if cfg.variant == "SO":
        ko = _object_kernel(a, b, cfg)
        return (1.0 - alpha) * ks + alpha * ko
    if cfg.variant == "SP":
        kp = kernel_chi2(a.p, b.p, cfg.gamma_p, cfg.chi2_epsilon)
        return (1.0 - alpha) * ks + alpha * kp
    kp = kernel_chi2(a.p, b.p, cfg.gamma_p, cfg.chi2_epsilon)
    ko = _object_kernel(a, b, cfg)
    return (1.0 - alpha) * ks + 0.5 * alpha * kp + 0.5 * alpha * ko


def _object_kernel(a: Location, b: Location, cfg: KernelConfig) -> float:
    if not (a.has_object and b.has_object):
        return 0.0
    return kernel_chi2(a.o, b.o, cfg.gamma_o, cfg.chi2_epsilon)


def gram_oracle(features: LocationFeatures, cfg: KernelConfig) -> np.ndarray:
    """combined_kernel over every pair of rows of a stacked record (no sparsification)."""
    locs = locations(features)
    return np.array([[combined_kernel(a, b, cfg) for b in locs] for a in locs])
