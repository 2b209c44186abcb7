import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionmaps.scene import (
    ActivityVocabulary,
    Demonstrations,
    GridPose,
    SceneError,
    GlobalIndex,
    SceneGrid,
    grid_coords,
)
from actionmaps.synthetic import PRESETS, generate_dataset
from tests.conftest import sparsity


def test_create_scene_empty():
    scene = SceneGrid("scene", 4, 4, 0.25)
    assert scene.n_cells == 16
    assert sparsity(scene) == (0.0, 0.0)
    assert len(scene.demonstrations) == 0
    assert not scene.labels.any() and scene.labelled_cells() == []


def test_create_scene_with_labels():
    labels = np.zeros((16, 6), dtype=bool)
    labels[[0, 6, 6, 15], [0, 1, 2, 0]] = True  # cells (0, 0), (1, 2) twice, (3, 3)
    scene = SceneGrid("scene", 4, 4, 0.25, labels=labels)
    assert len(scene.labelled_cells()) == 3
    assert np.flatnonzero(scene.labels[scene.row_of((1, 2))]).tolist() == [1, 2]
    assert scene.labels.shape == (16, scene.n_activities)
    assert scene.labels.sum() == 4


def test_create_scene_errors():
    with pytest.raises(SceneError, match="grid dims"):
        SceneGrid("scene", 0, 4)
    with pytest.raises(SceneError, match="cell size"):
        SceneGrid("scene", 4, 4, cell_size_m=0.0)
    with pytest.raises(SceneError, match="labels must have shape"):
        SceneGrid("scene", 4, 4, labels=np.zeros((16, 7), dtype=bool))


def test_office_a_like_stats_match_reference_sparsity():
    dataset = generate_dataset(PRESETS["office_a"], seed=0)
    r_e, r_a = sparsity(dataset.scenes[0])
    assert abs(r_e - 0.59) <= 0.05
    assert abs(r_a - 0.03) <= 0.01
    assert len(dataset.scenes[0].demonstrations) == 90


def test_demonstrated_rows_count_as_explored():
    scene = SceneGrid("scene", 4, 4, demonstrations=Demonstrations([11], [0], [1.0]))
    assert np.flatnonzero(scene.explored).tolist() == [scene.row_of((2, 3))] == [11]
    assert len(scene.demonstrations) == 1


def test_demonstration_errors():
    def scene_with(rows, acts, values):
        return SceneGrid("scene", 4, 4, demonstrations=Demonstrations(rows, acts, values))

    with pytest.raises(SceneError, match=r"row 16 outside \[0, 16\)"):
        scene_with([16], [0], [1.0])
    with pytest.raises(SceneError, match=r"activity 6 outside \[0, 6\)"):
        scene_with([0], [6], [1.0])
    with pytest.raises(SceneError, match="demonstrated once"):
        scene_with([5, 5], [1, 1], [0.4, 0.9])
    with pytest.raises(SceneError, match=">= 0"):
        Demonstrations([0], [0], [-0.5])
    with pytest.raises(SceneError, match="one length"):
        Demonstrations([0, 1], [0], [1.0])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_scene_constructor_checks(data):
    # a scene takes any demonstrations whose rows and activities are in range,
    # whose (row, activity) pairs are distinct and whose values are >= 0; it
    # refuses all others, and every array it holds is a read-only copy
    width, height, n_act = (data.draw(st.integers(1, 4)) for _ in range(3))
    n = width * height
    k = data.draw(st.integers(0, 6))
    rows = data.draw(st.lists(st.integers(-1, n), min_size=k, max_size=k))
    acts = data.draw(st.lists(st.integers(-1, n_act), min_size=k, max_size=k))
    value = st.one_of(st.floats(0.0, 1.0), st.just(float("nan")), st.floats(-1.0, -1e-9))
    values = data.draw(st.lists(value, min_size=k, max_size=k))
    explored = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=n * n_act, max_size=n * n_act)))
    vocab = ActivityVocabulary(tuple(f"a{a}" for a in range(n_act)))

    def build():
        demos = Demonstrations(rows, acts, values)
        return SceneGrid("s", width, height, 0.25, vocab, explored, labels.reshape(n, n_act), demos)

    valid = (
        all(0 <= r < n for r in rows)
        and all(0 <= a < n_act for a in acts)
        and len(set(zip(rows, acts))) == k
        and all(v >= 0 for v in values)
    )
    if not valid:
        with pytest.raises(SceneError):
            build()
        return
    scene = build()
    demos = scene.demonstrations
    assert demos.rows.tolist() == rows and demos.activities.tolist() == acts
    assert demos.values.tolist() == values
    want_explored = np.array(explored)
    want_explored[rows] = True
    assert scene.explored.tolist() == want_explored.tolist()
    given_labels = labels.copy()
    labels ^= True  # the scene holds a copy of what it was given
    assert np.array_equal(scene.labels, given_labels.reshape(n, n_act))
    for array in (scene.explored, scene.labels, demos.rows, demos.activities, demos.values):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_stack_single_scene_row_order():
    scene = SceneGrid("s", 2, 2)
    index = GlobalIndex([scene])
    assert index.total_rows == 4
    assert [index.row("s", cell) for cell in [(0, 0), (0, 1), (1, 0), (1, 1)]] == [0, 1, 2, 3]


def test_stack_two_scenes_offsets():
    a = SceneGrid("a", 2, 2)
    b = SceneGrid("b", 2, 3)
    index = GlobalIndex([a, b])
    assert index.offsets == {"a": 0, "b": 4}
    assert index.total_rows == 10


def test_stack_round_trip_identity():
    a = SceneGrid("a", 3, 4)
    b = SceneGrid("b", 2, 5)
    index = GlobalIndex([a, b])
    rows = [
        index.row(scene.scene_id, (i, j))
        for scene in (a, b)
        for i, j in grid_coords(scene.width, scene.height).tolist()
    ]
    assert rows == list(range(index.total_rows))


def test_stack_vocabulary_mismatch():
    a = SceneGrid("a", 2, 2)
    b = SceneGrid("b", 2, 2, vocabulary=ActivityVocabulary(("sit", "type")))
    with pytest.raises(SceneError):
        GlobalIndex([a, b])


def test_scene_is_read_only_and_stacking_leaves_it_alone():
    labels = np.zeros((4, 6), dtype=bool)
    labels[0, 1] = True
    scene = SceneGrid("s", 2, 2, labels=labels)
    explored, labels = scene.explored, scene.labels
    GlobalIndex([scene])
    assert scene.explored is explored and scene.labels is labels
    with pytest.raises(ValueError, match="read-only"):
        scene.labels[0, 0] = True
    with pytest.raises(ValueError, match="read-only"):
        scene.explored[0] = True
    demoed = scene.with_demonstrations(Demonstrations([3], [0], [1.0]))
    assert demoed.labels[0, 1] and demoed.explored.tolist() == [False, False, False, True]
    assert not scene.explored.any() and len(scene.demonstrations) == 0


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 1), (3, 5)])
def test_grid_coords_follow_the_row_order(shape):
    scene = SceneGrid("s", *shape)
    coords = grid_coords(*shape)
    assert coords.shape == (scene.n_cells, 2) and coords.dtype.kind == "i"
    for row, (i, j) in enumerate(coords.tolist()):
        assert scene.row_of((i, j)) == row


def test_with_demonstrations(tiny_scene):
    copy = tiny_scene.with_demonstrations(Demonstrations([], [], []))
    assert len(copy.demonstrations) == 0
    assert np.array_equal(copy.explored, tiny_scene.explored)
    assert np.array_equal(copy.labels, tiny_scene.labels)


def test_vocabulary_validation():
    with pytest.raises(SceneError):
        ActivityVocabulary(("sit", "sit"))
    vocab = ActivityVocabulary()
    assert len(vocab) == 6
    assert vocab.index("wash") == 5
    with pytest.raises(SceneError):
        vocab.index("juggle")


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: GridPose((1.0, 1.0), (NAN, NAN)),
        lambda: GridPose((1.0, 1.0), (NAN, 0.0)),
        lambda: Demonstrations([0], [0], [NAN]),
        lambda: SceneGrid("s", 2, 2, NAN),
    ],
    ids=["pose-heading", "pose-heading-x", "demo-value", "cell-size"],
)
def test_nan_is_rejected(build):
    # every comparison with NaN is False, so a check must be written to fail on it
    with pytest.raises(SceneError):
        build()
