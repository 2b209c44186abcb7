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
from typing import ClassVar, Optional, Sequence

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
        if not (0 < self.sigma_s < math.inf and 0 < self.gamma < math.inf):
            raise SideInfoError(
                f"kernel bandwidths must be positive and finite, got sigma_s {self.sigma_s}, "
                f"gamma {self.gamma}"
            )
        if self.variant not in VARIANTS:
            raise SideInfoError(f"variant must be one of {VARIANTS}, got {self.variant}")
        if not 0 <= self.tau < math.inf:
            raise SideInfoError(
                f"sparsification threshold must be finite and >= 0, got {self.tau}"
            )


@dataclass(frozen=True, init=False)
class GramMatrix:
    """Symmetric location-similarity matrix with entries in [0, 1], and its
    row-sum degree vector. Only GramBasis.gram builds one, and it certifies
    these properties as it writes the matrix; both arrays are frozen and
    read-only, so they hold for the object's lifetime."""

    matrix: np.ndarray
    degrees: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a GramMatrix is built only by GramBasis.gram")


def _gram_matrix(matrix: np.ndarray, degrees: np.ndarray) -> GramMatrix:
    """The GramMatrix of a certified matrix and its row sums, made read-only."""
    gram = object.__new__(GramMatrix)
    for name, value in (("matrix", matrix), ("degrees", degrees)):
        value.setflags(write=False)
        object.__setattr__(gram, name, value)
    return gram


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
    the 64-row blocks that gram() writes: block i covers rows lo:hi and
    columns lo:m. A floor (a KernelConfig with the smallest gamma, the
    largest sigma_s and the smallest tau the basis must serve) keeps only
    the candidate pairs, where some term reaches tau at the floor (see
    _candidate_limits); every other entry is 0 for each config gram()
    accepts. With no floor, or a floor tau of 0, every pair is a candidate.

    Each term packs its blocks into one flat array; block i starts at
    offsets[i]. A block whose every pair is a candidate is held dense:
    chi2_p over columns lo:m; spatial_sq over columns lo:end, where end is
    one past the last row of every scene with rows in the block (the spatial
    term is zero across scenes), with +inf for pairs in different scenes;
    chi2_o over the block's object rows (object_rows[object_starts[i]:
    object_starts[i + 1]], the rows with object evidence) against the
    object rows >= lo. Any other block holds one value per candidate pair,
    object pairs first: its int32 position r * m + c (row lo + r, column
    lo + c), chi2_p and spatial_sq (+inf across scenes) at each, and chi2_o
    at the object pairs. Each block is computed dense, in place at the tail
    of each term's array, then kept or overwritten by its candidates (see
    _compact). Refuses more than MAX_DENSE_LOCATIONS locations before
    allocating anything.
    """

    def __init__(self, features: LocationFeatures, chi2_epsilon=KernelConfig.chi2_epsilon,
                 *, floor: Optional[KernelConfig] = None):
        self.m = m = features.x.shape[0]
        if m > MAX_DENSE_LOCATIONS:
            raise SideInfoError(
                f"{m} locations exceed the dense Gram cap of {MAX_DENSE_LOCATIONS}; "
                "use fewer or smaller scenes"
            )
        self.floor = floor
        limits = _candidate_limits(floor)
        bounds = np.append(np.arange(0, m, _ROW_BLOCK), m)
        _, scene = np.unique(features.scene_codes, return_inverse=True)
        scene_end = np.zeros(scene.max() + 1, dtype=np.intp)
        np.maximum.at(scene_end, scene, np.arange(1, m + 1))
        ends = np.maximum.reduceat(scene_end[scene], bounds[:-1])
        self.object_rows = rows = np.flatnonzero((features.o > 0).any(axis=1))
        self.object_starts = starts = np.searchsorted(rows, bounds)
        p_dims = np.ascontiguousarray(features.p.T)
        o_dims = np.ascontiguousarray(features.o[rows].T)
        work = np.empty((2, min(_ROW_BLOCK, m), m))
        # each term is sized for its dense blocks, which is all it holds with no floor
        heights, lows = np.diff(bounds), bounds[:-1]
        terms = (
            _Packed(0, np.int32),
            _Packed(np.sum(heights * (m - lows))),
            _Packed(np.sum(heights * (ends - lows))),
            _Packed(np.sum(np.diff(starts) * (rows.size - starts[:-1]))),
        )
        for i, (lo, hi, end) in enumerate(zip(lows, bounds[1:], ends)):
            a, b = starts[i], starts[i + 1]
            cp = terms[1].tail((hi - lo, m - lo))
            sq = terms[2].tail((hi - lo, end - lo))
            co = terms[3].tail((b - a, rows.size - a))
            _chi2_block(p_dims, lo, hi, chi2_epsilon, cp, work)
            _spatial_block(features.x, scene, lo, hi, end, sq, work[0])
            if b > a:
                _chi2_block(o_dims, a, b, chi2_epsilon, co, work)
            _compact(terms, m, cp, sq, co, rows[a:b] - lo, rows[a:] - lo, limits)
        self.positions, self.position_offsets = terms[0].packed()
        self.chi2_p, self.chi2_p_offsets = terms[1].packed()
        self.spatial_sq, self.spatial_offsets = terms[2].packed()
        self.chi2_o, self.chi2_o_offsets = terms[3].packed()

    def gram(self, cfg: KernelConfig) -> GramMatrix:
        """Entries are (w kp + (1 - alpha) ks) + w ko, with w = alpha for SO/SP
        and alpha/2 for SOP; kp is zero for S and SO, ks is not scaled for S,
        and ko is zero unless both locations have objects. Each 64-row block
        is computed on its candidate pairs and thresholded, written over
        columns lo:m with 0 at every other pair, then mirrored below the
        diagonal, into one m x m output. Then the block's rows are whole (their
        columns below lo are earlier blocks' mirrors), so their degrees are
        summed there, and the block is refused unless its entries lie in
        [0, 1]. Refuses a config outside the floor (gamma below it, sigma_s
        above it or tau below it), where a dropped pair could be non-zero."""
        floor = self.floor
        if floor is not None and not (
            cfg.gamma >= floor.gamma and cfg.sigma_s <= floor.sigma_s and cfg.tau >= floor.tau
        ):
            raise SideInfoError(
                f"kernel config (gamma {cfg.gamma}, sigma_s {cfg.sigma_s}, tau {cfg.tau}) is "
                f"outside the Gram basis floor (gamma >= {floor.gamma}, "
                f"sigma_s <= {floor.sigma_s}, tau >= {floor.tau})"
            )
        m, rows, starts = self.m, self.object_rows, self.object_starts
        k, degrees = np.empty((m, m)), np.empty(m)
        flat_block = np.empty(min(_ROW_BLOCK, m) * m)
        scratch = np.empty_like(flat_block)
        for i, (lo, hi) in enumerate(_blocks(m)):
            a, b = starts[i], starts[i + 1]
            kb = k[lo:hi, lo:]
            chi2_p = _block(self.chi2_p, self.chi2_p_offsets, i)
            spatial_sq = _block(self.spatial_sq, self.spatial_offsets, i)
            chi2_o = _block(self.chi2_o, self.chi2_o_offsets, i)
            if chi2_p.size == kb.size:  # a dense block
                chi2_o = chi2_o.reshape(b - a, rows.size - a)
                objects = np.ix_(rows[a:b] - lo, rows[a:] - lo)
                _entries(cfg, chi2_p.reshape(kb.shape), spatial_sq.reshape(hi - lo, -1),
                         chi2_o, objects, kb, scratch)
            else:
                out = flat_block[: chi2_p.size]
                _entries(cfg, chi2_p, spatial_sq, chi2_o, slice(0, chi2_o.size), out, scratch)
                kb.fill(0.0)
                positions = _block(self.positions, self.position_offsets, i)
                k.reshape(-1)[lo * (m + 1) :][positions] = out
            k[hi:, lo:hi] = kb[:, hi - lo :].T
            k[lo:hi].sum(axis=1, out=degrees[lo:hi])
            # written so that NaN entries fail: every comparison with NaN is False
            if not (kb.min() >= -1e-12 and kb.max() <= 1.0 + 1e-9):
                raise SideInfoError("Gram entries must lie in [0, 1]")
        return _gram_matrix(k, degrees)


def _entries(cfg: KernelConfig, chi2_p, spatial_sq, chi2_o, objects, out, scratch) -> None:
    """Thresholded Gram entries of one block into out, from chi2_p (out's
    shape), spatial_sq at out's leading columns and chi2_o at out[objects];
    scratch is a flat buffer of at least out.size values. A dense block and
    a flat one take the same operations in the same order, so an entry has
    the same bits in both."""
    variant, alpha = cfg.variant, cfg.alpha
    w = 0.5 * alpha if variant == "SOP" else alpha
    if variant in ("SP", "SOP"):
        np.multiply(chi2_p, -cfg.gamma, out=out)
        np.exp(out, out=out)
        out *= w
    else:
        out.fill(0.0)
    ks = scratch[: spatial_sq.size].reshape(spatial_sq.shape)
    np.negative(spatial_sq, out=ks)
    ks /= 2.0 * cfg.sigma_s * cfg.sigma_s
    np.exp(ks, out=ks)
    if variant != "S":
        ks *= 1.0 - alpha
    out[..., : ks.shape[-1]] += ks
    if variant in ("SO", "SOP") and chi2_o.size:
        ko = scratch[: chi2_o.size].reshape(chi2_o.shape)
        np.multiply(chi2_o, -cfg.gamma, out=ko)
        np.exp(ko, out=ko)
        ko *= w
        out[objects] += ko
    if cfg.tau > 0:
        out[out < cfg.tau] = 0.0


_ROW_BLOCK = 64  # rows per block of an m x m array: scratch is _ROW_BLOCK x m
# Relative slack on the floor's tau in the candidate rule; it covers the
# rounding of exp, of the weight products and of the sums in gram().
CANDIDATE_MARGIN = 1e-9


def _candidate_limits(floor: Optional[KernelConfig]) -> Optional[tuple[float, float]]:
    """(chi-squared limit, squared-distance limit) of the candidate pairs at
    a floor; None when every pair is a candidate (no floor, or tau 0).

    With L = -ln(tau (1 - CANDIDATE_MARGIN)), a pair is a candidate when
    chi2_p <= L / gamma, or both rows have objects and chi2_o <= L / gamma,
    or the rows share a scene and d^2 <= 2 sigma_s^2 L. The term weights sum
    to at most 1, so at any other pair every term, and so the entry, stays
    below tau for each config whose gamma and tau are at least the floor's
    and whose sigma_s is at most the floor's.
    """
    if floor is None or floor.tau == 0:
        return None
    log_tau = -math.log(floor.tau * (1.0 - CANDIDATE_MARGIN))
    return log_tau / floor.gamma, 2.0 * floor.sigma_s * floor.sigma_s * log_tau


def _compact(terms, m, cp, sq, co, object_rows, object_cols, limits) -> None:
    """Commit one block, computed in place at the tail of terms = (positions,
    chi2_p, spatial_sq, chi2_o): dense with no positions, or overwritten
    with its candidate pairs, object pairs first, when they take fewer
    bytes. cp covers the block's columns lo:m, sq its columns lo:lo + near
    (every later column is in another scene) and co the pairs of
    object_rows and object_cols (all relative to lo)."""
    sizes = (0, cp.size, sq.size, co.size)
    if limits is not None:
        chi2_limit, sq_limit = limits
        near = sq.shape[1]
        keep = cp <= chi2_limit
        keep[:, :near] |= sq <= sq_limit
        objects = np.ix_(object_rows, object_cols)
        keep[objects] |= co <= chi2_limit
        paired = keep[objects]
        # a candidate holds a 4-byte position and two doubles, a third if paired
        held = 20 * np.count_nonzero(keep) + 8 * np.count_nonzero(paired)
        if held < 8 * sum(sizes):
            keep[objects] = False
            in_co = np.flatnonzero(paired)
            r, c = np.divmod(in_co, object_cols.size)
            r, c = np.concatenate(([object_rows[r], object_cols[c]], np.nonzero(keep)), axis=1)
            spatial = np.where(c < near, sq[r, np.minimum(c, near - 1)], np.inf)
            values = (r * m + c, cp[r, c], spatial, co.reshape(-1)[in_co])
            for term, block in zip(terms, values):
                term.tail(block.shape)[...] = block
            sizes = [block.size for block in values]
    for term, size in zip(terms, sizes):
        term.commit(size)


class _Packed:
    """One flat array that a term's blocks are written to in turn, and the
    offset where each block starts. The array is allocated once, at the
    size given; pages never written are not resident. A block is written at
    the tail, past the committed ones, and then committed at its size; the
    array grows by doubling only when a tail outruns it."""

    def __init__(self, size, dtype=float):
        self.flat = np.empty(size, dtype)
        self.offsets = [0]

    def tail(self, shape) -> np.ndarray:
        """The values past the committed blocks, as a view of the given shape."""
        start = self.offsets[-1]
        end = start + math.prod(shape)
        if end > self.flat.size:
            grown = np.empty(max(end, 2 * self.flat.size), self.flat.dtype)
            grown[:start] = self.flat[:start]
            self.flat = grown
        return self.flat[start:end].reshape(shape)

    def commit(self, size: int) -> None:
        """The next block is the first size values of the tail."""
        self.offsets.append(self.offsets[-1] + size)

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """The committed blocks in an array of their size, and the offsets."""
        size = self.offsets[-1]
        flat = self.flat if size == self.flat.size else self.flat[:size].copy()
        return flat, np.array(self.offsets)


def _blocks(n: int):
    """(lo, hi) bounds of consecutive row blocks covering range(n)."""
    return ((lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK))


def _block(flat: np.ndarray, offsets: np.ndarray, i: int) -> np.ndarray:
    """Block i of a packed array, as a flat view."""
    return flat[offsets[i] : offsets[i + 1]]


def _spatial_block(x, scene, lo, hi, end, out, dy) -> None:
    """out[r, c] = dx^2 + dy^2 between rows lo + r and lo + c of the 2D
    coordinates x, for rows lo:hi and columns lo:end; +inf where the scene
    indices of the two rows differ. dy is scratch of at least out's shape."""
    x0, x1 = x[:, 0], x[:, 1]
    d = dy[: hi - lo, : end - lo]
    np.subtract.outer(x0[lo:hi], x0[lo:end], out=out)
    out *= out
    np.subtract.outer(x1[lo:hi], x1[lo:end], out=d)
    d *= d
    out += d
    out[scene[lo:hi, None] != scene[None, lo:end]] = np.inf


def _chi2_block(dims, lo, hi, epsilon, out, work) -> None:
    """out[r, c] = chi-squared distance between vectors lo + r and lo + c,
    for rows lo:hi and columns lo:n, where dims holds one feature dim per
    row (n vectors); summed one dim at a time from 0, through the two
    scratch buffers of work."""
    n = dims.shape[1]
    d, s = work[0, : hi - lo, : n - lo], work[1, : hi - lo, : n - lo]
    if not dims.shape[0]:
        out.fill(0.0)
    for k, col in enumerate(dims):
        np.subtract.outer(col[lo:hi], col[lo:], out=d)
        d *= d
        np.add.outer(col[lo:hi], col[lo:], out=s)
        s += epsilon
        if k:
            d /= s
            out += d
        else:  # 0 + d is d: each term is >= +0
            np.divide(d, s, out=out)

