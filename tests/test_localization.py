import numpy as np
import pytest

from actionmaps.localization import (
    LocalizationError,
    LocalizationQuery,
    discrepancy_curve,
    rank_locations,
)


def test_rank_one_hot():
    am = np.zeros((6, 2))
    am[4, 1] = 1.0
    ranked = rank_locations(am, 1, (2, 3))
    assert ranked[0] == (1, 1)  # row 4 of a 2x3 grid


def test_rank_uniform_is_row_major():
    am = np.full((6, 1), 0.5)
    assert rank_locations(am, 0, (2, 3)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(0)
    am = rng.uniform(0, 1, (20, 3))
    for act in range(3):
        ranked = rank_locations(am, act, (4, 5))
        scores = [am[i * 5 + j, act] for i, j in ranked]
        assert scores == sorted(scores, reverse=True)
        # full comparison against a python sort with row-major tie-break
        oracle = sorted(
            ((i, j) for i in range(4) for j in range(5)),
            key=lambda c: (-am[c[0] * 5 + c[1], act], c[0] * 5 + c[1]),
        )
        assert ranked == oracle


def test_rank_activity_out_of_range():
    with pytest.raises(LocalizationError):
        rank_locations(np.zeros((4, 2)), 5, (2, 2))


def test_curve_true_cell_ranked_first():
    am = np.zeros((9, 1))
    am[4] = 1.0  # cell (1, 1) on a 3x3 grid
    q = LocalizationQuery(activities=(0,), true_cells=((1, 1),), k_max=3)
    curve = discrepancy_curve(am, (3, 3), [q], 3)
    assert curve.per_activity[0][0] == 0.0


def test_curve_k_equals_m_reaches_zero():
    rng = np.random.default_rng(1)
    am = rng.uniform(0, 1, (12, 2))
    q = LocalizationQuery(activities=(1,), true_cells=((2, 1),), k_max=12)
    curve = discrepancy_curve(am, (4, 3), [q], 12)
    assert curve.per_activity[1][-1] == 0.0


def test_curve_monotone_non_increasing():
    rng = np.random.default_rng(2)
    am = rng.uniform(0, 1, (30, 3))
    queries = [
        LocalizationQuery(
            activities=(int(rng.integers(3)),),
            true_cells=((int(rng.integers(5)), int(rng.integers(6))),),
            k_max=30,
        )
        for _ in range(8)
    ]
    curve = discrepancy_curve(am, (5, 6), queries, 30)
    for values in curve.per_activity.values():
        assert np.all(np.diff(values) <= 1e-12)
    assert np.all(np.diff(curve.aggregate) <= 1e-12)


def test_curve_query_order_invariance():
    rng = np.random.default_rng(3)
    am = rng.uniform(0, 1, (20, 2))
    queries = [
        LocalizationQuery(
            activities=(int(rng.integers(2)),),
            true_cells=((int(rng.integers(4)), int(rng.integers(5))),),
            k_max=10,
        )
        for _ in range(6)
    ]
    a = discrepancy_curve(am, (4, 5), queries, 10)
    b = discrepancy_curve(am, (4, 5), list(reversed(queries)), 10)
    assert np.array_equal(a.aggregate, b.aggregate)
    for act in a.per_activity:
        assert np.array_equal(a.per_activity[act], b.per_activity[act])


def test_curve_validation():
    with pytest.raises(LocalizationError):
        discrepancy_curve(np.zeros((4, 1)), (2, 2), [], 2)
    q = LocalizationQuery(activities=(0,), true_cells=((9, 9),), k_max=2)
    with pytest.raises(LocalizationError):
        discrepancy_curve(np.zeros((4, 1)), (2, 2), [q], 2)
    with pytest.raises(LocalizationError):
        LocalizationQuery(activities=(), true_cells=(), k_max=1)
    with pytest.raises(LocalizationError):
        LocalizationQuery(activities=(0,), true_cells=((0, 0),), k_max=0)

