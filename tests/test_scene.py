import numpy as np
import pytest

from actionmaps.scene import (
    ActivityVocabulary,
    Demonstration,
    GridPose,
    SceneError,
    GlobalIndex,
    SceneGrid,
    create_scene,
    grid_coords,
)
from actionmaps.synthetic import PRESETS, generate_dataset


def test_create_scene_empty():
    scene = create_scene(4, 4, 0.25)
    assert scene.n_cells == 16
    stats = scene.stats()
    assert stats.r_a == 0.0
    assert stats.r_e == 0.0
    assert stats.demo_count == 0


def test_create_scene_with_labels():
    gt = [((0, 0), [0]), ((1, 2), [1, 2]), ((3, 3), [0])]
    scene = create_scene(4, 4, 0.25, gt)
    assert len(scene.labelled_cells()) == 3
    assert np.flatnonzero(scene.labels[scene.row_of((1, 2))]).tolist() == [1, 2]
    assert scene.labels.shape == (16, scene.n_activities)
    assert scene.labels.sum() == 4


def test_create_scene_errors():
    with pytest.raises(SceneError):
        create_scene(0, 4)
    with pytest.raises(SceneError):
        create_scene(4, 4, gt_spec=[((0, 0), [99])])
    with pytest.raises(SceneError):
        create_scene(4, 4, cell_size_m=0.0)


def test_office_a_like_stats_match_reference_sparsity():
    dataset = generate_dataset(PRESETS["office_a"], seed=0)
    stats = dataset.scenes[0].stats()
    assert abs(stats.r_e - 0.59) <= 0.05
    assert abs(stats.r_a - 0.03) <= 0.01
    assert stats.demo_count == 90


def test_add_demonstration_marks_explored():
    scene = create_scene(4, 4)
    scene.add_demonstration(Demonstration("scene", (2, 3), 0, 1.0))
    assert scene.explored[2, 3]
    assert scene.stats().demo_count == 1


def test_duplicate_demonstration_keeps_max():
    scene = create_scene(4, 4)
    scene.add_demonstration(Demonstration("scene", (1, 1), 0, 0.4))
    scene.add_demonstration(Demonstration("scene", (1, 1), 0, 0.9))
    demos = scene.demonstrations
    assert len(demos) == 1
    assert demos[0].value == 0.9
    # lower later value does not overwrite
    scene.add_demonstration(Demonstration("scene", (1, 1), 0, 0.2))
    assert scene.demonstrations[0].value == 0.9


def test_demonstration_errors():
    scene = create_scene(4, 4)
    with pytest.raises(SceneError):
        scene.add_demonstration(Demonstration("scene", (9, 0), 0, 1.0))
    with pytest.raises(SceneError):
        Demonstration("scene", (0, 0), 0, -0.5)
    with pytest.raises(SceneError):
        scene.add_demonstration(Demonstration("other", (0, 0), 0, 1.0))


def test_stack_single_scene_row_order():
    scene = create_scene(2, 2, scene_id="s")
    index = GlobalIndex([scene])
    assert index.total_rows == 4
    assert [index.location(r) for r in range(4)] == [
        ("s", (0, 0)),
        ("s", (0, 1)),
        ("s", (1, 0)),
        ("s", (1, 1)),
    ]


def test_stack_two_scenes_offsets():
    a = create_scene(2, 2, scene_id="a")
    b = create_scene(2, 3, scene_id="b")
    index = GlobalIndex([a, b])
    assert index.offsets == {"a": 0, "b": 4}
    assert index.total_rows == 10


def test_stack_round_trip_identity():
    a = create_scene(3, 4, scene_id="a")
    b = create_scene(2, 5, scene_id="b")
    index = GlobalIndex([a, b])
    for row in range(index.total_rows):
        scene_id, cell = index.location(row)
        assert index.row(scene_id, cell) == row


def test_stack_vocabulary_mismatch():
    a = create_scene(2, 2, scene_id="a")
    b = SceneGrid("b", 2, 2, vocabulary=ActivityVocabulary(("sit", "type")))
    with pytest.raises(SceneError):
        GlobalIndex([a, b])


def test_stacked_scene_is_frozen():
    scene = create_scene(2, 2, scene_id="s")
    GlobalIndex([scene])
    with pytest.raises(SceneError):
        scene.add_demonstration(Demonstration("s", (0, 0), 0, 1.0))
    with pytest.raises(SceneError):
        scene.mark_explored((0, 0))
    with pytest.raises(SceneError):
        scene.add_label((0, 0), 0)
    # the arrays are read-only too, so a stacked scene cannot change through them
    with pytest.raises(ValueError, match="read-only"):
        scene.labels[0, 0] = True
    with pytest.raises(ValueError, match="read-only"):
        scene.explored[0, 0] = True
    copy = scene.copy_with_demonstrations([Demonstration("s", (1, 1), 0, 1.0)])
    copy.add_label((0, 0), 1)
    assert copy.labels[0, 1] and copy.explored[1, 1]
    assert not scene.labels.any() and not scene.explored.any()


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 1), (3, 5)])
def test_grid_coords_follow_the_row_order(shape):
    scene = create_scene(*shape)
    coords = grid_coords(*shape)
    assert coords.shape == (scene.n_cells, 2) and coords.dtype.kind == "i"
    for row, (i, j) in enumerate(coords.tolist()):
        assert scene.row_of((i, j)) == row
        assert scene.cell_of(row) == (i, j)


def test_stats_match_recount(tiny_scene):
    stats = tiny_scene.stats()
    explored = int(tiny_scene.explored.sum())
    demo_cells = {d.cell for d in tiny_scene.demonstrations}
    assert stats.r_e == explored / tiny_scene.n_cells
    assert stats.r_a == len(demo_cells) / tiny_scene.n_cells
    assert stats.demo_count == len(tiny_scene.demonstrations)
    assert 0 <= stats.r_a <= stats.r_e <= 1


def test_copy_with_demonstrations(tiny_scene):
    copy = tiny_scene.copy_with_demonstrations([])
    assert copy.stats().demo_count == 0
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
        lambda: Demonstration("s", (0, 0), 0, NAN),
        lambda: SceneGrid("s", 2, 2, NAN),
    ],
    ids=["pose-heading", "pose-heading-x", "demo-value", "cell-size"],
)
def test_nan_is_rejected(build):
    # every comparison with NaN is False, so a check must be written to fail on it
    with pytest.raises(SceneError):
        build()
