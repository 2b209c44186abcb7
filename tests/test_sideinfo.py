import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from actionmaps import sideinfo
from actionmaps.sideinfo import (
    VARIANTS,
    _ROW_BLOCK,
    GramBasis,
    GramMatrix,
    KernelConfig,
    LocationFeatures,
    SideInfoError,
    aggregate_object_scores,
)
from tests.kernel_oracles import (
    Location,
    chi2_distances_reference,
    combined_kernel,
    gram_oracle,
    gram_reference,
    kernel_chi2,
    kernel_spatial,
    locations,
    object_score,
    stack,
)

PEAK = 1.0 / (2.0 * math.sqrt(math.pi))


def _feat(x, p, o, scene="s"):
    return Location(x=x, p=np.asarray(p, float), o=np.asarray(o, float), scene_id=scene)


def _random_features(rng, m, scenes=("s",), c=3, f=2):
    out = []
    for k in range(m):
        out.append(
            _feat(
                (float(rng.integers(0, 6)), float(rng.integers(0, 6))),
                rng.uniform(0, 1, c),
                rng.uniform(0, 1, f) * (rng.random(f) < 0.7),
                scene=scenes[k % len(scenes)],
            )
        )
    return out


def _gram(locs, cfg):
    return GramBasis(stack(locs), cfg.chi2_epsilon).gram(cfg)


# -- aggregation -------------------------------------------------------------


def test_object_score_closed_form():
    assert object_score(0.0) == pytest.approx(PEAK, abs=1e-12)
    assert object_score(math.sqrt(2.0)) == pytest.approx(PEAK * math.exp(-0.5), abs=1e-12)
    assert object_score(1.5) == 0.0


def test_aggregate_object_scores_spot_values():
    # detection exactly at the center of cell (1, 1)
    o = aggregate_object_scores((3, 3), [(0, (1.5, 1.5))], n_categories=2)
    assert o[1 * 3 + 1, 0] == pytest.approx(PEAK, abs=1e-12)
    # neighbors at distance sqrt(2) get the e^{-1/2} weight
    assert o[0 * 3 + 0, 0] == pytest.approx(PEAK * math.exp(-0.5), abs=1e-12)
    assert o[1 * 3 + 1, 1] == 0.0


def test_aggregate_object_scores_out_of_radius_zero():
    o = aggregate_object_scores((5, 5), [(0, (0.5, 0.5))], n_categories=1)
    assert o[4 * 5 + 4, 0] == 0.0


def test_aggregate_object_scores_monotone_in_distance():
    zs = np.linspace(0, math.sqrt(2.0), 40)
    vals = [object_score(z) for z in zs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_aggregate_object_scores_unknown_category():
    with pytest.raises(SideInfoError):
        aggregate_object_scores((3, 3), [(5, (0.5, 0.5))], n_categories=2)


# -- kernels ------------------------------------------------------------------


def test_kernel_spatial_identity_and_closed_form():
    assert kernel_spatial((2.0, 3.0), (2.0, 3.0), 2.0) == 1.0
    sigma = 2.0
    d = sigma * math.sqrt(2.0)
    assert kernel_spatial((0.0, 0.0), (d, 0.0), sigma) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )
    assert kernel_spatial((0.0, 0.0), (0.0, 0.0), sigma, same_scene=False) == 0.0


def test_kernel_spatial_monotone_in_distance():
    dists = np.linspace(0, 8, 30)
    vals = [kernel_spatial((0.0, 0.0), (d, 0.0), 2.0) for d in dists]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_kernel_chi2_spot_values():
    assert kernel_chi2([0.3, 0.7], [0.3, 0.7], 1.0) == 1.0
    assert kernel_chi2([1.0, 0.0], [0.0, 1.0], 1.0, epsilon=0.0) == pytest.approx(
        math.exp(-2.0), abs=1e-12
    )


def test_kernel_chi2_symmetry_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u, v = rng.uniform(0, 2, 5), rng.uniform(0, 2, 5)
        assert kernel_chi2(u, v, 0.7) == kernel_chi2(v, u, 0.7)


def test_kernel_chi2_errors():
    with pytest.raises(SideInfoError):
        kernel_chi2([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(SideInfoError):
        kernel_chi2([-0.1], [0.1], 1.0)


def test_combined_kernel_alpha_zero_is_spatial_only():
    cfg = KernelConfig(alpha=0.0, variant="SOP")
    a = _feat((0.0, 0.0), [1, 0], [0.5])
    b = _feat((1.0, 2.0), [0, 1], [0.0])
    assert combined_kernel(a, b, cfg) == kernel_spatial(a.x, b.x, cfg.sigma_s)


def test_combined_kernel_alpha_one_identical_features():
    cfg = KernelConfig(alpha=1.0, variant="SOP")
    a = _feat((0.0, 0.0), [0.2, 0.8], [0.3])
    b = _feat((5.0, 5.0), [0.2, 0.8], [0.3])
    assert combined_kernel(a, b, cfg) == pytest.approx(1.0, abs=1e-12)


def test_combined_kernel_object_zero_rule():
    # same cell, same p, a has an object and b does not: the object term drops
    cfg = KernelConfig(alpha=0.5, variant="SOP")
    a = _feat((1.0, 1.0), [0.4, 0.6], [0.7])
    b = _feat((1.0, 1.0), [0.4, 0.6], [0.0])
    assert combined_kernel(a, b, cfg) == pytest.approx(0.75, abs=1e-12)


def test_combined_kernel_single_sided_variants_use_full_alpha():
    a = _feat((0.0, 0.0), [1.0, 0.0], [0.5])
    b = _feat((0.0, 0.0), [1.0, 0.0], [0.5])
    for variant in ("SO", "SP"):
        cfg = KernelConfig(alpha=0.6, variant=variant)
        # identical features: (1 - alpha) * 1 + alpha * 1 = 1
        assert combined_kernel(a, b, cfg) == pytest.approx(1.0, abs=1e-12)
    c = _feat((0.0, 0.0), [0.0, 1.0], [0.5])
    cfg = KernelConfig(alpha=0.6, variant="SP", gamma=1.0)
    expected = 0.4 + 0.6 * math.exp(-2.0 / (1.0 + cfg.chi2_epsilon))
    assert combined_kernel(a, c, cfg) == pytest.approx(expected, abs=1e-12)


def test_gram_single_location():
    cfg = KernelConfig(alpha=0.3)
    feats = [_feat((0.0, 0.0), [1.0], [0.2])]
    gram = _gram(feats, cfg)
    assert gram.matrix.shape == (1, 1)
    assert gram.matrix[0, 0] == pytest.approx(combined_kernel(feats[0], feats[0], cfg))


def test_gram_matches_bruteforce_pairwise():
    rng = np.random.default_rng(2)
    feats = stack(_random_features(rng, 9, scenes=("s1", "s2")))
    for variant in ("S", "SO", "SP", "SOP"):
        cfg = KernelConfig(alpha=0.6, variant=variant, tau=0.0)
        gram = GramBasis(feats, cfg.chi2_epsilon).gram(cfg)
        np.testing.assert_allclose(gram.matrix, gram_oracle(feats, cfg), rtol=0, atol=1e-12)


def test_gram_cross_scene_block_zero_when_spatial_only():
    rng = np.random.default_rng(3)
    feats = _random_features(rng, 8, scenes=("s1", "s2"))
    gram = _gram(feats, KernelConfig(alpha=0.0, variant="SOP", tau=0.0))
    for i in range(8):
        for j in range(8):
            if feats[i].scene_id != feats[j].scene_id:
                assert gram.matrix[i, j] == 0.0


def test_gram_symmetry_range_and_degrees():
    rng = np.random.default_rng(4)
    feats = _random_features(rng, 12, scenes=("s1", "s2"))
    for variant in ("S", "SO", "SP", "SOP"):
        for alpha in (0.0, 0.4, 1.0):
            gram = _gram(feats, KernelConfig(alpha=alpha, variant=variant))
            m = gram.matrix
            assert np.array_equal(m, m.T)
            assert m.min() >= 0.0 and m.max() <= 1.0 + 1e-12
            assert np.allclose(gram.degrees, m.sum(axis=1))


def test_gram_sop_diagonal_lower_bound():
    rng = np.random.default_rng(5)
    feats = _random_features(rng, 10)
    for alpha in (0.0, 0.5, 1.0):
        gram = _gram(feats, KernelConfig(alpha=alpha, variant="SOP"))
        assert gram.matrix.diagonal().min() >= 1.0 - alpha / 2.0 - 1e-12


def test_gram_appearance_bridges_scenes():
    # shared appearance with alpha > 0 produces cross-scene similarity above tau
    f1 = _feat((0.0, 0.0), [1.0, 0.0], [0.5], scene="s1")
    f2 = _feat((0.0, 0.0), [1.0, 0.0], [0.5], scene="s2")
    cfg = KernelConfig(alpha=0.5, variant="SOP", tau=1e-4)
    gram = _gram([f1, f2], cfg)
    assert gram.matrix[0, 1] > cfg.tau


def test_gram_sparsification_threshold():
    f1 = _feat((0.0, 0.0), [1.0], [0.0], scene="s1")
    f2 = _feat((50.0, 50.0), [1.0], [0.0], scene="s1")
    gram = _gram([f1, f2], KernelConfig(alpha=0.0, tau=1e-4))
    assert gram.matrix[0, 1] == 0.0  # e^{-dist^2/8} is far below tau


def test_gram_size_cap(monkeypatch):
    rng = np.random.default_rng(6)
    feats = _random_features(rng, 5)
    monkeypatch.setattr(sideinfo, "MAX_DENSE_LOCATIONS", 4)
    with pytest.raises(SideInfoError, match="cap of 4"):
        _gram(feats, KernelConfig())


def test_gram_basis_size_cap(monkeypatch):
    rng = np.random.default_rng(6)
    feats = stack(_random_features(rng, 5))
    monkeypatch.setattr(sideinfo, "MAX_DENSE_LOCATIONS", 4)
    with pytest.raises(SideInfoError, match="cap"):
        GramBasis(feats)
    monkeypatch.setattr(sideinfo, "MAX_DENSE_LOCATIONS", 5)
    assert GramBasis(feats).m == 5


def _write_into_block_1(monkeypatch, value):
    """Make gram() overwrite the first entry that _entries computes for
    block 1 with value; returns the list that gets each block's layout."""
    original, layouts = sideinfo._entries, []

    def entries(*args):
        original(*args)
        out = args[-2]
        layouts.append("dense" if out.ndim == 2 else "compact")
        if len(layouts) == 2:
            out.flat[0] = value

    monkeypatch.setattr(sideinfo, "_entries", entries)
    return layouts


def _assert_block_1_refused(monkeypatch, value):
    # block 1 of this record is dense in an unfloored basis and compact in a floored one
    feats, cfg = _two_scene_record(m=200), KernelConfig(gamma=100.0)
    for floor, layout in ((None, "dense"), (cfg, "compact")):
        basis = GramBasis(feats, floor=floor)
        layouts = _write_into_block_1(monkeypatch, value)
        with pytest.raises(SideInfoError, match="must lie in"):
            basis.gram(cfg)
        assert layouts[1] == layout


def test_gram_matrix_rejects_nan(monkeypatch):
    # every comparison with NaN is False, so a NaN entry must fail the range check
    _assert_block_1_refused(monkeypatch, np.nan)


def test_gram_matrix_rejects_entries_above_one(monkeypatch):
    _assert_block_1_refused(monkeypatch, 1.5)


def test_gram_matrix_derives_degrees_from_matrix():
    rng = np.random.default_rng(4)
    gram = _gram(_random_features(rng, 12, scenes=("s1", "s2")), KernelConfig())
    assert np.array_equal(gram.degrees, gram.matrix.sum(axis=1))


def test_gram_matrix_is_built_only_by_gram():
    # a matrix gram() has not certified, or degrees that could disagree
    # with it, cannot make a GramMatrix
    k = np.array([[1.0, 0.25], [0.0, 1.0]])
    for args, kwargs in (((), {"matrix": k}), ((k, k.sum(axis=1)), {}), ((), {})):
        with pytest.raises(TypeError, match="only by GramBasis.gram"):
            GramMatrix(*args, **kwargs)


def test_gram_matrix_is_frozen_and_read_only():
    # what gram() certified holds for the object's lifetime
    feats = [_feat((0.0, 0.0), [1.0], [0.0]), _feat((1.0, 0.0), [1.0], [0.0])]
    gram = _gram(feats, KernelConfig(alpha=0.0))
    with pytest.raises(ValueError, match="read-only"):
        gram.matrix[0, 1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        gram.degrees[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        gram.degrees = np.zeros(2)
    with pytest.raises(FrozenInstanceError):
        gram.matrix = np.eye(2)
    assert gram.degrees.tolist() == pytest.approx([1.0 + math.exp(-1 / 8)] * 2)


def _two_scene_record(m=700, seed=11):
    rng = np.random.default_rng(seed)
    return LocationFeatures(
        x=rng.integers(0, 20, (m, 2)).astype(float),
        p=rng.dirichlet(np.ones(8), m),
        o=rng.uniform(0.0, 1.0, (m, 5)) * (rng.random((m, 1)) < 0.2),
        scene_codes=(np.arange(m) >= m // 2).astype(int),
    )


def test_basis_and_gram_memory_peaks():
    # building the basis needs its upper-triangle blocks plus row-block
    # scratch; gram() allocates one m x m output plus row-block scratch
    feats = _two_scene_record()
    m2_bytes = 8 * feats.x.shape[0] ** 2
    cfg = KernelConfig(variant="SOP", gamma=100.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        basis = GramBasis(feats, cfg.chi2_epsilon)
        basis_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        basis.gram(cfg)
        gram_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert basis_peak <= 3 * m2_bytes
    assert gram_peak <= 1.5 * m2_bytes


@pytest.mark.parametrize("floor", [KernelConfig(gamma=100.0), None], ids=["compact", "dense"])
def test_gram_scratch_is_sized_to_its_largest_block(floor):
    # besides the m x m output and the degrees, gram() holds two scratch
    # buffers of the largest block's entries, and per entry of a compact
    # block five intp temporaries: rows, columns, scatter indices and the
    # two coordinate gathers. Buffers of 64 x m doubles, sized for a dense
    # block, exceed this where every block is compact.
    feats = _two_scene_record()
    m = feats.x.shape[0]
    basis = GramBasis(feats, floor=floor)
    largest = np.diff(basis.chi2_p_offsets).max()
    if floor is not None:
        assert largest < _ROW_BLOCK * m / 4
    cfg = KernelConfig(gamma=100.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        basis.gram(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - 8 * m * m - 8 * m <= (2 + 5) * 8 * largest + 64 * 1024


def test_basis_retains_upper_triangle_blocks_only():
    # every kernel term is symmetric and the spatial term is zero across
    # scenes: on two equal scenes the basis holds about m^2 / 2 chi2_p and
    # m^2 / 4 spatial doubles, where full m x m arrays held 2.1 x 8m^2 bytes
    feats = _two_scene_record()
    m2_bytes = 8 * feats.x.shape[0] ** 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        basis = GramBasis(feats)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert basis.m == feats.x.shape[0]
    assert held <= 0.9 * m2_bytes


def test_gram_basis_matches_direct_build():
    # one basis reused across configs equals a fresh basis per config, and a
    # record split into rows and stacked again builds the same basis
    rng = np.random.default_rng(7)
    feats = stack(_random_features(rng, 7, scenes=("a", "b")))
    basis = GramBasis(feats)
    restacked = GramBasis(stack(locations(feats)))
    for variant in ("S", "SO", "SP", "SOP"):
        cfg = KernelConfig(alpha=0.7, gamma=0.9, variant=variant)
        direct = GramBasis(feats, cfg.chi2_epsilon).gram(cfg).matrix
        assert np.array_equal(basis.gram(cfg).matrix, direct)
        assert np.array_equal(restacked.gram(cfg).matrix, direct)


def _record(m=3, c=2, f=2):
    rng = np.random.default_rng(0)
    return dict(
        x=rng.integers(0, 5, (m, 2)).astype(float),
        p=rng.uniform(0, 1, (m, c)),
        o=rng.uniform(0, 1, (m, f)),
        scene_codes=np.zeros(m, dtype=int),
    )


def test_feature_validation():
    LocationFeatures(**_record())
    bad = [
        {"p": np.array([[-0.1, 0.2]] * 3)},  # negative
        {"o": np.array([[np.inf, 0.0]] * 3)},  # not finite
        {"x": np.array([[np.nan, 0.0]] * 3)},  # not finite
        {"p": np.ones((2, 2))},  # row count differs
        {"scene_codes": np.zeros(4, dtype=int)},  # row count differs
        {"x": np.ones((3, 3))},  # coordinates are not 2D
        {"o": np.ones(3)},  # not stacked
        {"x": np.zeros((0, 2)), "p": np.zeros((0, 2)), "o": np.zeros((0, 2)),
         "scene_codes": np.zeros(0, dtype=int)},  # no location
    ]
    for change in bad:
        with pytest.raises(SideInfoError):
            LocationFeatures(**{**_record(), **change})
    with pytest.raises(SideInfoError):
        KernelConfig(alpha=1.5)
    with pytest.raises(SideInfoError):
        KernelConfig(variant="XXX")
    o = np.array([[0.0, 0.0], [0.0, 0.2], [0.3, 0.0]])
    basis = GramBasis(LocationFeatures(**{**_record(), "o": o}))
    assert basis.object_rows.tolist() == [1, 2]


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param({"sigma_s": math.nan}, id="sigma_s"),
        pytest.param({"gamma": math.nan}, id="gamma"),
        # the one chi-squared bandwidth when only the scene-class (P) or only
        # the object (O) kernel uses it
        pytest.param({"gamma": math.nan, "variant": "SP"}, id="gamma_p"),
        pytest.param({"gamma": math.nan, "variant": "SO"}, id="gamma_o"),
        pytest.param({"tau": math.nan}, id="tau"),
    ],
)
def test_kernel_config_rejects_nan(kwargs):
    # every comparison with NaN is False, so a check must be written to fail on it
    with pytest.raises(SideInfoError):
        KernelConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("alpha", "0.5"), ("alpha", True), ("sigma_s", None), ("gamma", False),
     ("tau", None), ("tau", True), ("variant", 1)],
)
def test_kernel_config_rejects_wrong_types(field, value):
    # a string or None used to fail a comparison with a bare TypeError, which
    # the grid does not record, and alpha=True was taken as 1
    with pytest.raises(SideInfoError, match=field):
        KernelConfig(**{field: value})


def test_kernel_config_takes_numpy_scalars():
    cfg = KernelConfig(alpha=np.float64(0.3), sigma_s=2, gamma=np.int64(100), tau=0)
    assert cfg.alpha == 0.3 and cfg.gamma == 100


def test_kernel_config_settings_and_fixed_chi2_guard():
    # the chi-squared guard and the dense cap are constants, not settings
    names = [f.name for f in fields(KernelConfig)]
    assert names == ["alpha", "sigma_s", "gamma", "variant", "tau"]
    assert KernelConfig().chi2_epsilon == 1e-10
    with pytest.raises(TypeError):
        KernelConfig(chi2_epsilon=0.0)
    with pytest.raises(FrozenInstanceError):
        KernelConfig().chi2_epsilon = 0.0


# -- property tests -----------------------------------------------------------


@st.composite
def _features(draw):
    """Random stacked records over one or two scenes."""
    m = draw(st.integers(1, 8))
    c = draw(st.integers(1, 4))
    f = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    return LocationFeatures(
        x=draw(hnp.arrays(float, (m, 2), elements=st.integers(0, 6).map(float))),
        p=draw(hnp.arrays(float, (m, c), elements=unit)),
        o=draw(hnp.arrays(float, (m, f), elements=st.one_of(st.just(0.0), unit))),
        scene_codes=draw(hnp.arrays(int, (m,), elements=st.integers(0, 1))),
    )


@settings(max_examples=60, deadline=None)
@given(
    feats=_features(),
    variant=st.sampled_from(VARIANTS),
    alpha=st.floats(0.0, 1.0),
    gamma=st.floats(0.01, 100.0),
)
def test_gram_matches_oracle_property(feats, variant, alpha, gamma):
    cfg = KernelConfig(alpha=alpha, gamma=gamma, variant=variant, tau=0.0)
    gram = GramBasis(feats, cfg.chi2_epsilon).gram(cfg)
    np.testing.assert_allclose(gram.matrix, gram_oracle(feats, cfg), rtol=0, atol=1e-12)


def _layout(draw, rng, m):
    """Coordinates (m, 2), on the grid's integers or off them, and scene
    codes over 1-3 scenes or over many small ones."""
    if draw(st.booleans()):
        x = rng.uniform(0.0, 25.0, (m, 2))
    else:
        x = rng.integers(0, 25, (m, 2)).astype(float)
    return x, rng.integers(0, draw(st.one_of(st.integers(1, 3), st.integers(10, 40))), m)


@st.composite
def _block_records(draw):
    """Records of 1 to 200 rows (see _layout), so m falls below, on and
    across row-block and tile boundaries; no, some or every row has objects."""
    m = draw(st.one_of(st.integers(1, 200), st.sampled_from([63, 64, 65, 127, 128, 129])))
    objects = draw(st.sampled_from(("none", "some", "all")))
    c = draw(st.integers(1, 8))
    f = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    o = rng.uniform(0.01, 1.0, (m, f))
    if objects == "none":
        o[:] = 0.0
    elif objects == "some":
        o *= rng.random((m, f)) < 0.15
    x, codes = _layout(draw, rng, m)
    return LocationFeatures(x=x, p=rng.dirichlet(np.ones(c), m), o=o, scene_codes=codes)


@settings(max_examples=40, deadline=None)
@given(
    feats=_block_records(),
    variant=st.sampled_from(VARIANTS),
    tau=st.sampled_from((0.0, 1e-4)),
    alpha=st.floats(0.0, 1.0),
    sigma_s=st.floats(0.5, 4.0),
    gamma=st.floats(0.01, 1000.0),
)
def test_gram_equals_unblocked_reference_property(feats, variant, tau, alpha, sigma_s, gamma):
    cfg = KernelConfig(alpha=alpha, sigma_s=sigma_s, gamma=gamma, variant=variant, tau=tau)
    gram = GramBasis(feats, cfg.chi2_epsilon).gram(cfg)
    want = gram_reference(feats, cfg)
    assert np.array_equal(gram.matrix, want.matrix)
    assert np.array_equal(gram.degrees, want.degrees)


@st.composite
def _contiguous_scene_records(draw):
    """Records of m rows on either side of the 64-row block edges, over
    contiguous scenes with boundaries off the block edges, one scene being a
    single row."""
    m = draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
    cuts = {c for c in range(1, m) if c % _ROW_BLOCK}
    singles = [r for r in range(m) if all(c in cuts for c in (r, r + 1) if 0 < c < m)]
    single = draw(st.sampled_from(singles))
    extra = draw(st.lists(st.sampled_from(sorted(cuts)), max_size=3))
    edges = sorted({single, single + 1, *extra} & cuts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return LocationFeatures(
        x=rng.integers(0, 25, (m, 2)).astype(float),
        p=rng.dirichlet(np.ones(4), m),
        o=rng.uniform(0.01, 1.0, (m, 3)) * (rng.random((m, 1)) < 0.3),
        scene_codes=np.searchsorted(edges, np.arange(m), side="right"),
    )


@settings(max_examples=30, deadline=None)
@given(
    feats=_contiguous_scene_records(),
    tau=st.sampled_from((0.0, 1e-4)),
    alpha=st.floats(0.0, 1.0),
    gamma=st.floats(0.01, 1000.0),
)
def test_mirrored_gram_is_exactly_symmetric_property(feats, tau, alpha, gamma):
    basis = GramBasis(feats)
    for variant in VARIANTS:
        cfg = KernelConfig(alpha=alpha, gamma=gamma, variant=variant, tau=tau)
        k = basis.gram(cfg).matrix
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, gram_reference(feats, cfg).matrix)


@settings(max_examples=60, deadline=None)
@given(feats=_features(), data=st.data())
def test_invalid_features_raise_property(feats, data):
    arrays = {"x": feats.x, "p": feats.p, "o": feats.o, "scene_codes": feats.scene_codes}
    targets = {"negative": ("p", "o"), "nan": ("x", "p", "o"), "rows": tuple(arrays)}
    kind = data.draw(st.sampled_from(tuple(targets)))
    name = data.draw(st.sampled_from(targets[kind]))
    if kind == "rows":
        arrays[name] = np.concatenate([arrays[name], arrays[name][:1]])
    else:
        bad = arrays[name].copy()
        row = data.draw(st.integers(0, bad.shape[0] - 1))
        col = data.draw(st.integers(0, bad.shape[1] - 1))
        bad[row, col] = -data.draw(st.floats(1e-6, 10.0)) if kind == "negative" else np.nan
        arrays[name] = bad
    with pytest.raises(SideInfoError):
        LocationFeatures(**arrays)


# -- the candidate pairs of a floored basis -----------------------------------


@st.composite
def _floored_cases(draw):
    """Records with m on the row-block and stripe edges (see _layout), with
    no, some or every row having objects; a floor, and configs at or above
    it (gamma and tau at least, sigma_s at most the floor's)."""
    m = draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
    objects = draw(st.sampled_from(("none", "some", "all")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    o = rng.uniform(0.01, 1.0, (m, 3))
    if objects == "none":
        o[:] = 0.0
    elif objects == "some":
        o *= rng.random((m, 1)) < 0.3
    x, codes = _layout(draw, rng, m)
    feats = LocationFeatures(
        x=x, p=rng.dirichlet(np.ones(draw(st.integers(1, 6))), m), o=o, scene_codes=codes
    )
    floor = KernelConfig(
        sigma_s=draw(st.floats(0.5, 4.0)),
        gamma=draw(st.sampled_from((1.0, 10.0, 100.0, 1000.0))),
        tau=draw(st.sampled_from((0.0, 1e-4, 1e-2))),
    )
    configs = [
        KernelConfig(
            alpha=draw(st.floats(0.0, 1.0)),
            sigma_s=floor.sigma_s * draw(st.sampled_from((1.0, 0.5))),
            gamma=floor.gamma * draw(st.sampled_from((1.0, 3.0))),
            variant=variant,
            tau=draw(st.sampled_from((floor.tau, 2.0 * floor.tau, floor.tau + 1e-3))),
        )
        for variant in VARIANTS
    ]
    return feats, floor, configs


@settings(max_examples=40, deadline=None)
@given(case=_floored_cases())
def test_floored_gram_equals_reference_property(case):
    feats, floor, configs = case
    basis = GramBasis(feats, floor=floor)
    _compact_blocks_follow_the_floor_rule(feats, floor, basis)
    for cfg in configs:
        gram, want = basis.gram(cfg), gram_reference(feats, cfg)
        assert np.array_equal(gram.matrix, want.matrix)
        assert np.array_equal(gram.degrees, want.degrees)


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"gamma": 99.0}, id="gamma"),
        pytest.param({"sigma_s": 2.5}, id="sigma_s"),
        pytest.param({"tau": 0.5e-4}, id="tau"),
    ],
)
def test_floored_basis_refuses_configs_below_its_floor(change):
    # a dropped pair could be non-zero under such a config, so gram() refuses
    # rather than return a different Gram
    floor = KernelConfig(gamma=100.0, sigma_s=2.0, tau=1e-4)
    feats = _two_scene_record(m=80)
    basis = GramBasis(feats, floor=floor)
    with pytest.raises(SideInfoError, match="outside the Gram basis floor"):
        basis.gram(replace(floor, **change))
    # the floor itself, and configs beyond it in each direction, are served
    for cfg in (floor, replace(floor, gamma=101.0, sigma_s=1.5, tau=2e-4)):
        assert np.array_equal(basis.gram(cfg).matrix, gram_reference(feats, cfg).matrix)


@pytest.mark.parametrize("term", ["spatial", "scene-class"])
def test_candidate_margin_keeps_a_term_within_ulps_of_tau(term):
    # two rows whose one term t lies a few ulps from the floor's tau: the
    # pair is kept whenever t >= tau, although -ln(tau) and the distance
    # limit round; without the margin some of these pairs are dropped
    feats = LocationFeatures(
        x=np.array([[0.0, 0.0], [1.0, 0.0]]),
        p=np.array([[1.0, 0.0], [0.0, 1.0]]) if term == "scene-class" else np.ones((2, 1)),
        o=np.zeros((2, 1)),
        scene_codes=np.array([0, 1]) if term == "scene-class" else np.zeros(2, dtype=int),
    )
    variant = "SP" if term == "scene-class" else "S"
    for scale in np.linspace(0.3, 3.0, 25):
        cfg = KernelConfig(alpha=1.0, sigma_s=scale, gamma=scale, variant=variant, tau=0.0)
        t = gram_reference(feats, cfg).matrix[0, 1]
        for step in range(-3, 4):
            tau = t
            for _ in range(abs(step)):
                tau = np.nextafter(tau, np.inf if step > 0 else 0.0)
            floor = replace(cfg, tau=float(tau))
            got = GramBasis(feats, floor=floor).gram(floor).matrix
            assert got[0, 1] == (t if t >= tau else 0.0)
            assert np.array_equal(got, gram_reference(feats, floor).matrix)


def test_floored_basis_retains_candidate_pairs_only():
    # at gamma 100 and tau 1e-4 most pairs of the two-scene record are far
    # apart in space and in scene-class scores; the basis holds about a
    # third of the 0.885 x 8m^2 bytes that all upper-triangle pairs take
    feats = _two_scene_record()
    m2_bytes = 8 * feats.x.shape[0] ** 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        basis = GramBasis(feats, floor=KernelConfig(gamma=100.0))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert basis.rows.size > 0
    assert held <= 0.4 * m2_bytes


def test_floored_basis_never_holds_more_than_every_pair():
    # a block where most pairs are candidates is held dense
    feats = _two_scene_record(m=300)

    def held(basis):
        return sum(v.nbytes for v in vars(basis).values() if isinstance(v, np.ndarray))

    dense = held(GramBasis(feats))
    for gamma in (1.0, 10.0, 100.0):
        assert held(GramBasis(feats, floor=KernelConfig(gamma=gamma))) <= dense + 64
    assert GramBasis(feats, floor=KernelConfig(gamma=1.0)).rows.size == 0


def _compact_blocks_follow_the_floor_rule(feats, floor, basis) -> int:
    """Decode every compact block of a floored basis and check it against
    the floor's candidate rule, which the whole-matrix distances give (d^2 =
    +inf across scenes): the object pairs and then the other candidates,
    each run ordered by column and then row, as uint8 rows and, per run,
    uint8 counts per column lo:m, with chi2_p at each and chi2_o at the
    object pairs, in 9 bytes per candidate, 8 per object pair and 2 per
    column. A dense block holds no rows and no counts. Returns the number of
    compact blocks."""
    # a row within a block, and a column's count of candidates, fit in a uint8
    assert _ROW_BLOCK < 2**8
    m, eps = basis.m, floor.chi2_epsilon
    codes = feats.scene_codes
    d = feats.x[:, None, :] - feats.x[None, :, :]
    spatial_sq = np.where(codes[:, None] == codes[None, :], (d * d).sum(axis=2), np.inf)
    chi2_p = chi2_distances_reference(feats.p, eps)
    has = (feats.o > 0).any(axis=1)
    object_pair = has[:, None] & has[None, :]
    chi2_o = np.where(object_pair, chi2_distances_reference(feats.o, eps), np.inf)
    # with no limits every pair is a candidate, and every block is dense
    chi2_limit, sq_limit = sideinfo._candidate_limits(floor) or (np.inf, np.inf)
    candidate = (chi2_p <= chi2_limit) | (chi2_o <= chi2_limit) | (spatial_sq <= sq_limit)
    assert basis.rows.dtype == basis.counts.dtype == np.uint8
    compact = 0
    for i, (lo, hi) in enumerate(sideinfo._blocks(m)):
        stored = sideinfo._block(basis.rows, basis.row_offsets, i)
        counts = sideinfo._block(basis.counts, basis.count_offsets, i)
        cp = sideinfo._block(basis.chi2_p, basis.chi2_p_offsets, i)
        co = sideinfo._block(basis.chi2_o, basis.chi2_o_offsets, i)
        if cp.size == (hi - lo) * (m - lo):
            assert stored.size == counts.size == 0
            continue
        compact += 1
        want, paired = candidate[lo:hi, lo:], object_pair[lo:hi, lo:]
        # np.nonzero of a transpose lists (column, row) pairs by column, then row
        runs = (np.nonzero((want & paired).T), np.nonzero((want & ~paired).T))
        assert counts.size == 2 * (m - lo)
        columns = np.repeat(np.tile(np.arange(m - lo), 2), counts)
        rows = stored.astype(np.intp)
        assert np.array_equal(columns, np.concatenate([run[0] for run in runs]))
        assert np.array_equal(rows, np.concatenate([run[1] for run in runs]))
        assert np.array_equal(cp, chi2_p[lo + rows, lo + columns])
        n_objects = runs[0][0].size
        assert np.array_equal(co, chi2_o[lo + rows[:n_objects], lo + columns[:n_objects]])
        assert stored.nbytes + counts.nbytes + cp.nbytes + co.nbytes == (
            9 * rows.size + 8 * n_objects + 2 * (m - lo)
        )
    return compact


def test_compact_blocks_hold_9_bytes_per_candidate_8_per_object_pair_and_2_per_column():
    # a compact block holds a uint8 row and chi2_p at each candidate pair,
    # chi2_o at the object pairs among them, and per run a uint8 count per
    # column; no spatial distance is held, and the candidates are exactly
    # those of the floor's rule
    feats = _two_scene_record(m=300)
    floor = KernelConfig(sigma_s=2.0, gamma=100.0, tau=1e-4)
    basis = GramBasis(feats, floor=floor)
    held = {name for name, v in vars(basis).items() if isinstance(v, np.ndarray)}
    assert held == {"rows", "row_offsets", "counts", "count_offsets", "chi2_p", "chi2_p_offsets",
                    "chi2_o", "chi2_o_offsets", "object_rows", "object_starts", "coords",
                    "scene", "ends"}
    for name in ("coords", "scene"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(basis, name)[..., 0] = 0
    assert _compact_blocks_follow_the_floor_rule(feats, floor, basis) > 0


def test_floored_build_peaks_no_higher_than_the_dense_build():
    # every block is computed in place in arrays of the dense size, so a
    # floor where every block stays dense (gamma 10 on this record) peaks as
    # the no-floor build does; slack of one boolean row block of candidates
    feats = _two_scene_record()
    m = feats.x.shape[0]
    peaks = []
    for floor in (None, KernelConfig(gamma=10.0)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            basis = GramBasis(feats, floor=floor)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert basis.rows.size == 0
    assert peaks[1] <= peaks[0] + _ROW_BLOCK * m
    assert peaks[1] <= 1.15 * 8 * m * m


def test_floored_spatial_values_outgrow_their_dense_size():
    # 26 contiguous scenes of 25 rows give narrow spatial blocks, while the
    # rows alike in scene-class scores are candidates in every scene, so most
    # candidates of a block lie in other scenes, where gram() recomputes a
    # squared distance of +inf
    rng = np.random.default_rng(3)
    m = 26 * 25
    p = rng.dirichlet(np.ones(6), m)
    p[::2] = p[0]
    feats = LocationFeatures(
        x=rng.integers(0, 8, (m, 2)).astype(float),
        p=p,
        o=rng.uniform(0.0, 1.0, (m, 3)) * (rng.random((m, 1)) < 0.3),
        scene_codes=np.arange(m) // 25,
    )
    floor = KernelConfig(sigma_s=1.0, gamma=100.0, tau=1e-4)
    basis = GramBasis(feats, floor=floor)
    for variant in VARIANTS:
        cfg = replace(floor, variant=variant)
        gram, want = basis.gram(cfg), gram_reference(feats, cfg)
        assert np.array_equal(gram.matrix, want.matrix)
        assert np.array_equal(gram.degrees, want.degrees)


def _assert_certified(gram):
    k = gram.matrix
    assert np.array_equal(gram.degrees, k.sum(axis=1))
    assert k.min() >= 0.0 and k.max() <= 1.0
    assert np.array_equal(k, k.T)


_CERTIFIED_CONFIGS = {  # name -> (floor, tau of the config at that floor)
    "floored": (KernelConfig(sigma_s=2.0, gamma=100.0, tau=1e-4), 1e-4),
    "unfloored": (None, 1e-4),
    "tau0": (KernelConfig(sigma_s=2.0, gamma=100.0, tau=0.0), 0.0),
}


@settings(max_examples=40, deadline=None)
@given(
    feats=_block_records(),
    mode=st.sampled_from(sorted(_CERTIFIED_CONFIGS)),
    variant=st.sampled_from(VARIANTS),
    alpha=st.floats(0.0, 1.0),
)
def test_gram_is_certified_property(feats, mode, variant, alpha):
    # gram() sums each row once it is whole, so degrees keep the bits of
    # plain row sums; its mirror makes the matrix exactly symmetric
    floor, tau = _CERTIFIED_CONFIGS[mode]
    cfg = KernelConfig(alpha=alpha, sigma_s=2.0, gamma=100.0, variant=variant, tau=tau)
    _assert_certified(GramBasis(feats, floor=floor).gram(cfg))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 2550])
def test_stripe_checks_range_and_degrees_match_whole_matrix(n):
    # gram() checks the range of, and sums, each 64-row stripe as it writes
    # it; on either side of the stripe edges the result agrees with the
    # whole matrix, in a floored, an unfloored and a tau = 0 basis
    feats = _two_scene_record(m=n, seed=n)
    for floor, tau in _CERTIFIED_CONFIGS.values():
        cfg = KernelConfig(sigma_s=2.0, gamma=100.0, tau=tau)
        _assert_certified(GramBasis(feats, floor=floor).gram(cfg))


@pytest.mark.parametrize("name", ["sigma_s", "gamma", "tau"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_kernel_config_rejects_infinite_settings(name, value):
    # an infinite bandwidth or threshold would make exp() warn and the Gram
    # fail its range check, or zero every entry
    with pytest.raises(SideInfoError, match="finite"):
        KernelConfig(**{name: value})


@pytest.mark.parametrize("sigma_s, refused", [
    (1e-200, True), (1e-163, True), (1e-160, False), (1e153, False), (1e154, True), (1e160, True),
])
def test_kernel_config_takes_sigma_s_only_where_its_square_is_a_float(sigma_s, refused):
    # gram() divides by 2 sigma_s^2, which is 0 or inf at the refused values
    # although each of them is positive and finite
    if refused:
        with pytest.raises(SideInfoError, match=r"^sigma_s must keep 2 \* sigma_s\^2 positive"):
            KernelConfig(sigma_s=sigma_s)
    else:
        assert KernelConfig(sigma_s=sigma_s).sigma_s == sigma_s
