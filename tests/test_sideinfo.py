import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from actionmaps.sideinfo import (
    VARIANTS,
    GramBasis,
    KernelConfig,
    LocationFeatures,
    SideInfoError,
    aggregate_object_scores,
)
from tests.kernel_oracles import (
    Location,
    combined_kernel,
    gram_oracle,
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
    cfg = KernelConfig(alpha=0.6, variant="SP", gamma_p=1.0, chi2_epsilon=0.0)
    expected = 0.4 + 0.6 * math.exp(-2.0)
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


def test_gram_size_cap():
    rng = np.random.default_rng(6)
    feats = _random_features(rng, 5)
    with pytest.raises(SideInfoError, match="cap"):
        _gram(feats, KernelConfig(max_dense=4))


def test_gram_basis_matches_direct_build():
    # one basis reused across configs equals a fresh basis per config, and a
    # record split into rows and stacked again builds the same basis
    rng = np.random.default_rng(7)
    feats = stack(_random_features(rng, 7, scenes=("a", "b")))
    basis = GramBasis(feats)
    restacked = GramBasis(stack(locations(feats)))
    for variant in ("S", "SO", "SP", "SOP"):
        cfg = KernelConfig(alpha=0.7, gamma_p=0.9, gamma_o=1.3, variant=variant)
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
    assert basis.object_pair.diagonal().tolist() == [False, True, True]


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
    gamma_p=st.floats(0.01, 100.0),
    gamma_o=st.floats(0.01, 100.0),
)
def test_gram_matches_oracle_property(feats, variant, alpha, gamma_p, gamma_o):
    cfg = KernelConfig(alpha=alpha, gamma_p=gamma_p, gamma_o=gamma_o, variant=variant, tau=0.0)
    gram = GramBasis(feats, cfg.chi2_epsilon).gram(cfg)
    np.testing.assert_allclose(gram.matrix, gram_oracle(feats, cfg), rtol=0, atol=1e-12)


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
