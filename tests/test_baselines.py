import numpy as np
import pytest

from actionmaps.baselines import (
    BaselineError,
    CategoryActivityMap,
    augmented_wnmf,
    detection_action_map,
)
from actionmaps.solver import ActionMatrixBundle, SolverParams, fit, normalize_action_map, predict
from tests.conftest import random_bundle


def _catmap(mapping, n_cat=2, n_act=3):
    return CategoryActivityMap(
        mapping={c: frozenset(a) for c, a in mapping.items()},
        n_categories=n_cat,
        n_activities=n_act,
    )


def test_detection_map_places_raw_score():
    o = np.zeros((4, 2))
    o[2, 0] = 0.28
    am = detection_action_map(o, _catmap({0: [1]}))
    assert am[2, 1] == pytest.approx(0.28)
    am[2, 1] = 0.0
    assert not am.any()


def test_detection_map_max_rule():
    o = np.zeros((1, 2))
    o[0] = [0.1, 0.2]
    am = detection_action_map(o, _catmap({0: [0], 1: [0]}))
    assert am[0, 0] == pytest.approx(0.2)


def test_detection_map_monotone():
    rng = np.random.default_rng(0)
    o = rng.uniform(0, 0.3, (6, 2))
    catmap = _catmap({0: [0, 1], 1: [1]})
    base = detection_action_map(o, catmap)
    bumped = o.copy()
    bumped[3, 0] += 0.1
    after = detection_action_map(bumped, catmap)
    assert (after >= base - 1e-15).all()


def test_detection_map_empty_mapping_warns():
    o = np.zeros((3, 2))
    with pytest.warns(UserWarning):
        am = detection_action_map(o, _catmap({}))
    assert not am.any()


def test_detection_map_shape_check():
    with pytest.raises(BaselineError):
        detection_action_map(np.zeros((3, 5)), _catmap({0: [0]}))


def test_catmap_validation():
    with pytest.raises(BaselineError):
        _catmap({7: [0]})
    with pytest.raises(BaselineError):
        _catmap({0: [9]})
    catmap = CategoryActivityMap.from_names(
        {"chair": ["sit"]}, ["chair", "desk"], ["sit", "type"]
    )
    assert catmap.mapping[0] == frozenset({0})
    with pytest.raises(BaselineError):
        CategoryActivityMap.from_names({"sofa": ["sit"]}, ["chair"], ["sit"])


def test_augmented_wnmf_degenerates_without_features():
    rng = np.random.default_rng(1)
    bundle = random_bundle(rng, m=12, a=4)
    params = SolverParams(rank=3, lam=0.0, max_iters=80, seed=5)
    explored = bundle.W.any(axis=1)
    got = augmented_wnmf(bundle, None, None, params, explored)
    plain = normalize_action_map(predict(fit(bundle, None, params=params).factors))
    assert np.array_equal(got, plain)


def test_augmented_wnmf_invariant_to_zero_columns():
    rng = np.random.default_rng(2)
    bundle = random_bundle(rng, m=12, a=4)
    params = SolverParams(rank=3, max_iters=80, seed=6)
    explored = bundle.W.any(axis=1)
    p = rng.uniform(0, 1, (12, 3))
    with_zeros = np.hstack([p, np.zeros((12, 2))])
    a = augmented_wnmf(bundle, p, None, params, explored)
    b = augmented_wnmf(bundle, with_zeros, None, params, explored)
    assert np.array_equal(a, b)


def test_augmented_wnmf_restricts_to_activity_columns():
    rng = np.random.default_rng(3)
    bundle = random_bundle(rng, m=10, a=4)
    params = SolverParams(rank=3, max_iters=50, seed=7)
    explored = bundle.W.any(axis=1)
    out = augmented_wnmf(bundle, rng.uniform(0, 1, (10, 5)), rng.uniform(0, 1, (10, 2)), params, explored)
    assert out.shape == (10, 4)
    assert out.min() >= 0 and out.max() <= 1.0


def test_augmented_wnmf_feature_validation():
    rng = np.random.default_rng(4)
    bundle = random_bundle(rng, m=10, a=4)
    params = SolverParams(rank=3)
    explored = bundle.W.any(axis=1)
    with pytest.raises(BaselineError):
        augmented_wnmf(bundle, np.ones((5, 2)), None, params, explored)
    with pytest.raises(BaselineError):
        augmented_wnmf(bundle, -np.ones((10, 2)), None, params, explored)


def test_augmented_wnmf_trace_non_increasing():
    # the augmented fit inherits the solver's monotonicity
    rng = np.random.default_rng(5)
    bundle = random_bundle(rng, m=12, a=4)
    feats = rng.uniform(0, 1, (12, 3))
    top = feats.max(axis=0)
    feats_n = feats / top
    explored = bundle.W.any(axis=1)
    r_aug = np.hstack([bundle.R, feats_n])
    w_aug = np.hstack([bundle.W, np.repeat(explored[:, None], 3, axis=1).astype(float)])
    r_aug[w_aug == 0] = 0.0
    aug = ActionMatrixBundle(R=r_aug, W=w_aug)
    result = fit(aug, None, params=SolverParams(rank=3, lam=0, max_iters=120, seed=8))
    trace = result.trace
    assert np.all(np.diff(trace) <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))
