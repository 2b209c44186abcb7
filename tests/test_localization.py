from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionmaps.localization import LocalizationError, discrepancy_curve
from actionmaps.scene import ActivityVocabulary, SceneError, SceneGrid

# -- the per-query reference ----------------------------------------------------


@dataclass(frozen=True)
class LocalizationQuery:
    """A sequence of observed activities with their true cells."""

    activities: tuple[int, ...]
    true_cells: tuple[tuple[int, int], ...]


def rank_locations_reference(am_scene, activity, grid_shape):
    """Cells sorted by descending score; ties break in row-major order."""
    height = grid_shape[1]
    order = np.argsort(-am_scene[:, activity], kind="stable")
    return [(int(r) // height, int(r) % height) for r in order]


def scene_queries_reference(scene):
    """One single-step query per labelled (cell, activity) pair."""
    return [
        LocalizationQuery(activities=(a,), true_cells=(cell,))
        for cell, acts in scene.labelled_cells()
        for a in acts
    ]


def discrepancy_curve_reference(am_scene, grid_shape, queries, k_max):
    """One ranking and one min-accumulated distance row per query step,
    averaged per activity and over all steps."""
    k_max = min(k_max, am_scene.shape[0])
    rank_cache, per_act = {}, {}
    for query in queries:
        for activity, (i, j) in zip(query.activities, query.true_cells):
            if activity not in rank_cache:
                rank_cache[activity] = np.array(
                    rank_locations_reference(am_scene, activity, grid_shape), dtype=float
                )
            ranked = rank_cache[activity][:k_max]
            dists = np.hypot(ranked[:, 0] - i, ranked[:, 1] - j)
            per_act.setdefault(activity, []).append(np.minimum.accumulate(dists))
    per_activity = {a: np.mean(np.stack(v), axis=0) for a, v in sorted(per_act.items())}
    all_curves = [c for v in per_act.values() for c in v]
    return np.arange(1, k_max + 1), per_activity, np.mean(np.stack(all_curves), axis=0)


def assert_matches_reference(am, scene, k_max):
    curve = discrepancy_curve(am, scene, k_max)
    k_values, per_activity, aggregate = discrepancy_curve_reference(
        am, (scene.width, scene.height), scene_queries_reference(scene), k_max
    )
    assert np.array_equal(curve.k_values, k_values)
    assert list(curve.per_activity) == list(per_activity)
    for a, values in per_activity.items():
        assert np.array_equal(curve.per_activity[a], values)
    assert np.array_equal(curve.aggregate, aggregate)


def _scene(width, height, labels, n_act=3):
    """A scene labelled with each ((i, j), activity) of labels."""
    vocab = ActivityVocabulary(tuple(f"a{k}" for k in range(n_act)))
    gt = np.zeros((width * height, n_act), dtype=bool)
    for (i, j), a in labels:
        gt[i * height + j, vocab.check(a)] = True
    return SceneGrid("s", width, height, 0.25, vocab, labels=gt)


# -- ranking, seen through the curve ----------------------------------------------


def test_rank_one_hot():
    am = np.zeros((6, 2))
    am[4, 1] = 1.0  # row 4 of a 2x3 grid is cell (1, 1)
    curve = discrepancy_curve(am, _scene(2, 3, [((1, 1), 1)], n_act=2), 1)
    assert curve.per_activity[1].tolist() == [0.0]


def test_rank_uniform_is_row_major():
    # a uniform map ranks (0,0), (0,1), (0,2), (1,0), (1,1), (1,2)
    am = np.full((6, 1), 0.5)
    curve = discrepancy_curve(am, _scene(2, 3, [((1, 2), 0)], n_act=1), 6)
    dists = np.hypot([1, 1, 1, 0, 0, 0], [2, 1, 0, 2, 1, 0])
    assert np.array_equal(curve.per_activity[0], np.minimum.accumulate(dists))


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(0)
    am = rng.uniform(0, 1, (20, 3))
    cells = [(i, j) for i in range(4) for j in range(5)]
    labels = [(cells[int(rng.integers(20))], a) for a in range(3) for _ in range(3)]
    curve = discrepancy_curve(am, _scene(4, 5, labels), 20)
    for act in range(3):
        # a python sort with row-major tie-break, then the best-so-far distance
        ranked = sorted(cells, key=lambda c: (-am[c[0] * 5 + c[1], act], c[0] * 5 + c[1]))
        true = sorted({cell for cell, a in labels if a == act})
        rows = [
            [min(np.hypot(r[0] - t[0], r[1] - t[1]) for r in ranked[:k]) for k in range(1, 21)]
            for t in true
        ]
        np.testing.assert_allclose(curve.per_activity[act], np.mean(rows, axis=0), atol=1e-12)


def test_rank_activity_out_of_range():
    # the scene refuses a label outside its vocabulary, and the curve refuses
    # a map without a column per activity of the scene
    with pytest.raises(SceneError):
        _scene(2, 2, [((0, 0), 5)], n_act=2)
    scene = _scene(2, 2, [((0, 0), 1)], n_act=2)
    with pytest.raises(LocalizationError, match="map is"):
        discrepancy_curve(np.zeros((4, 1)), scene, 2)


# -- the curve ------------------------------------------------------------------


def test_curve_true_cell_ranked_first():
    am = np.zeros((9, 1))
    am[4] = 1.0  # cell (1, 1) on a 3x3 grid
    curve = discrepancy_curve(am, _scene(3, 3, [((1, 1), 0)], n_act=1), 3)
    assert curve.per_activity[0][0] == 0.0


def test_curve_k_equals_m_reaches_zero():
    rng = np.random.default_rng(1)
    am = rng.uniform(0, 1, (12, 2))
    curve = discrepancy_curve(am, _scene(4, 3, [((2, 1), 1)], n_act=2), 12)
    assert curve.per_activity[1][-1] == 0.0


def test_curve_monotone_non_increasing():
    rng = np.random.default_rng(2)
    am = rng.uniform(0, 1, (30, 3))
    labels = [
        ((int(rng.integers(5)), int(rng.integers(6))), int(rng.integers(3))) for _ in range(8)
    ]
    curve = discrepancy_curve(am, _scene(5, 6, labels), 30)
    for values in curve.per_activity.values():
        assert np.all(np.diff(values) <= 1e-12)
    assert np.all(np.diff(curve.aggregate) <= 1e-12)


def test_curve_query_order_invariance():
    # the curve depends on the scene's label set, not on the order of its labels
    rng = np.random.default_rng(3)
    am = rng.uniform(0, 1, (20, 2))
    labels = [
        ((int(rng.integers(4)), int(rng.integers(5))), int(rng.integers(2))) for _ in range(6)
    ]
    a = discrepancy_curve(am, _scene(4, 5, labels, n_act=2), 10)
    b = discrepancy_curve(am, _scene(4, 5, labels[::-1], n_act=2), 10)
    assert np.array_equal(a.aggregate, b.aggregate)
    assert list(a.per_activity) == list(b.per_activity)
    for act in a.per_activity:
        assert np.array_equal(a.per_activity[act], b.per_activity[act])


def test_curve_validation():
    scene = _scene(2, 2, [((0, 0), 0)], n_act=1)
    for bad in (np.zeros((5, 1)), np.zeros((4, 2)), np.zeros(4)):
        with pytest.raises(LocalizationError, match="map is"):
            discrepancy_curve(bad, scene, 2)


@pytest.mark.parametrize("k_max", [0, -3])
def test_curve_rejects_k_max_below_one(k_max):
    with pytest.raises(LocalizationError, match="k_max"):
        discrepancy_curve(np.zeros((4, 1)), _scene(2, 2, [((0, 0), 0)], n_act=1), k_max)


def test_curve_rejects_scene_without_labels():
    with pytest.raises(LocalizationError, match="no labelled cells"):
        discrepancy_curve(np.zeros((4, 1)), _scene(2, 2, [], n_act=1), 2)


# -- equality with the per-query reference ----------------------------------------


@st.composite
def _scenes_and_maps(draw):
    """Scenes of 1x1 to 7x7 cells with 1 to 12 labels, and maps of random or
    heavily tied scores."""
    width, height, n_act = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    m = width * height
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    labels = draw(st.lists(st.tuples(cell, st.integers(0, n_act - 1)), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        am = rng.uniform(0, 1, (m, n_act))
    else:
        am = rng.integers(0, 3, (m, n_act)) / 2.0
    k_max = draw(st.one_of(st.sampled_from([1, 7, 50, m, m + 5]), st.integers(1, m + 5)))
    return am, _scene(width, height, labels, n_act), k_max


@settings(max_examples=150, deadline=None)
@given(case=_scenes_and_maps())
def test_curve_equals_per_query_reference_property(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("fixture", ["mini_dataset", "pair_dataset"])
@pytest.mark.parametrize("ties", [False, True])
def test_run_localization_equals_per_query_reference(request, fixture, ties):
    dataset = request.getfixturevalue(fixture)
    index = dataset.index()
    rng = np.random.default_rng(4)
    am = rng.uniform(0, 1, (index.total_rows, len(index.vocabulary)))
    if ties:
        am = np.round(am * 2) / 2
    for scene in dataset.scenes:
        rows = index.rows_of(scene.scene_id)
        for k_max in (1, 7, 50, scene.n_cells, scene.n_cells + 5):
            assert_matches_reference(am[rows], scene, k_max)
