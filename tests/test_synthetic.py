import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from actionmaps.baselines import detection_action_map
from actionmaps.evaluation import pose_views, score_action_map
from actionmaps.fileio import GeneratedDataset
from actionmaps.sideinfo import KernelConfig
from actionmaps.solver import normalize_action_map
from actionmaps.synthetic import (
    CATEGORY_NAMES,
    CLASS_NAMES,
    GenerationError,
    PRESETS,
    WorldSpec,
    _interior,
    _shifted,
    default_category_activity_map,
    generate_dataset,
    generate_scene,
    sample_demonstrations,
)
from tests.conftest import sparsity
from tests.kernel_oracles import combined_kernel, locations


def _demo_triples(demos):
    """(row, activity, value) of every demonstration, in order."""
    return list(zip(demos.rows.tolist(), demos.activities.tolist(), demos.values.tolist()))


ZERO_NOISE = WorldSpec(
    rooms_x=3,
    rooms_y=1,
    room_width=(5, 7),
    room_height=(5, 6),
    feature_noise=0.0,
    localization_jitter=0.0,
    detection_miss_rate=0.0,
    false_positive_rate=0.0,
    n_demonstrations=30,
)


def test_same_seed_identical_dataset():
    a = generate_dataset(PRESETS["mini"], seed=5)
    b = generate_dataset(PRESETS["mini"], seed=5)
    sa, sb = a.scenes[0], b.scenes[0]
    assert sa.width == sb.width and sa.height == sb.height
    assert np.array_equal(sa.explored, sb.explored)
    assert _demo_triples(sa.demonstrations) == _demo_triples(sb.demonstrations)
    assert sa.poses == sb.poses
    assert sa.labelled_cells() == sb.labelled_cells()
    pa, oa = a.features[sa.scene_id]
    pb, ob = b.features[sb.scene_id]
    assert np.array_equal(pa, pb) and np.array_equal(oa, ob)


def test_zero_noise_features_signature():
    # with zero noise the class channel peaks exactly at each cell's own
    # room type: desk affordances imply office cells, wash implies kitchen
    scene, p, _o = generate_scene(ZERO_NOISE, seed=2)
    vocab = scene.vocabulary
    office_idx = CLASS_NAMES.index("office")
    kitchen_idx = CLASS_NAMES.index("kitchen")
    checked = 0
    for cell, acts in scene.labelled_cells():
        row = scene.row_of(cell)
        if vocab.index("type") in acts:
            assert int(p[row].argmax()) == office_idx
            checked += 1
        if vocab.index("wash") in acts:
            assert int(p[row].argmax()) == kitchen_idx
            checked += 1
    assert checked > 0
    # the zero-noise signature is exactly reproducible
    scene2, p2, _ = generate_scene(ZERO_NOISE, seed=2)
    assert np.array_equal(p, p2)


def test_office_a_targets():
    dataset = generate_dataset(PRESETS["office_a"], seed=1)
    r_e, r_a = sparsity(dataset.scenes[0])
    assert abs(r_e - 0.59) <= 0.05
    assert abs(r_a - 0.03) <= 0.01
    assert len(dataset.scenes[0].demonstrations) == 90


def test_generated_ratios_ordering():
    for seed in range(4):
        ds = generate_dataset(PRESETS["pair"], seed=seed)
        r_e, r_a = sparsity(ds.scenes[0])
        assert 0 <= r_a <= r_e <= 1


def test_demos_are_gt_positive_without_jitter():
    spec = ZERO_NOISE
    scene, _p, _o = generate_scene(spec, seed=3)
    demos = scene.demonstrations
    assert scene.labels[demos.rows, demos.activities].all()


def test_every_labelled_activity_is_demonstrated():
    scene, _p, _o = generate_scene(ZERO_NOISE, seed=4)
    labelled = {a for _c, acts in scene.labelled_cells() for a in acts}
    demoed = set(scene.demonstrations.activities.tolist())
    assert labelled == demoed


def test_sample_demonstrations_fractions():
    scene, _p, _o = generate_scene(ZERO_NOISE, seed=5)
    full = sample_demonstrations(scene, 1.0, seed=9)
    assert sorted(_demo_triples(full)) == sorted(_demo_triples(scene.demonstrations))
    assert len(sample_demonstrations(scene, 0.0, seed=9)) == 0
    with pytest.raises(GenerationError):
        sample_demonstrations(scene, 1.5, seed=9)
    with pytest.raises(GenerationError, match=r"^seed must be >= 0, got -1$"):
        sample_demonstrations(scene, 0.5, seed=-1)


def test_sample_demonstrations_prefix_property():
    scene, _p, _o = generate_scene(ZERO_NOISE, seed=6)
    s10, s50, s100 = (
        set(_demo_triples(sample_demonstrations(scene, f, seed=4))) for f in (0.1, 0.5, 1.0)
    )
    assert s10 <= s50 <= s100


def test_with_demo_fraction_dataset():
    ds = generate_dataset(PRESETS["mini"], seed=8)
    half = ds.with_demo_fraction(0.5, seed=2)
    n_full = len(ds.scenes[0].demonstrations)
    assert len(half.scenes[0].demonstrations) == round(0.5 * n_full)
    assert np.array_equal(half.scenes[0].explored, ds.scenes[0].explored)


def test_zero_noise_same_type_same_objects_kernel_is_one():
    # one seed's layout in two scenes: cross-scene twin cells agree exactly,
    # so with alpha=1 the appearance kernels give similarity 1
    twins = [generate_scene(ZERO_NOISE, 7, scene_id) for scene_id in ("scene_a", "scene_b")]
    ds = GeneratedDataset(
        scenes=[scene for scene, _p, _o in twins],
        features={scene.scene_id: (p, o) for scene, p, o in twins},
        catmap=default_category_activity_map(),
        class_names=CLASS_NAMES,
        category_names=CATEGORY_NAMES,
    )
    feats = locations(ds.location_features())
    index = ds.index()
    scene_a, scene_b = ds.scenes
    cfg = KernelConfig(alpha=1.0, variant="SOP")
    off_b = index.offsets[scene_b.scene_id]
    checked = 0
    for row in range(scene_a.n_cells):
        fa, fb = feats[row], feats[off_b + row]
        if fa.has_object and fb.has_object:
            assert combined_kernel(fa, fb, cfg) == pytest.approx(1.0, abs=1e-12)
            checked += 1
    assert checked > 0


def test_detection_baseline_ceiling_on_clean_data():
    # noiseless detections with in-room margins make the detection baseline
    # a perfect classifier for every labelled activity
    spec = WorldSpec(
        rooms_x=2,
        rooms_y=1,
        room_width=(7, 8),
        room_height=(7, 8),
        feature_noise=0.0,
        localization_jitter=0.0,
        detection_miss_rate=0.0,
        false_positive_rate=0.0,
        object_margin=2,
        n_demonstrations=10,
    )
    ds = generate_dataset(spec, seed=9)
    am = normalize_action_map(
        detection_action_map(ds.stacked_object_scores(), ds.catmap)
    )
    result = score_action_map(pose_views(ds.index()), am)
    present = result.gt_counts > 0
    assert np.allclose(result.per_activity_max[present], 1.0)


def test_spec_validation():
    with pytest.raises(GenerationError):
        WorldSpec(rooms_y=3)
    with pytest.raises(GenerationError):
        WorldSpec(detection_miss_rate=1.5)
    with pytest.raises(GenerationError):
        WorldSpec(feature_noise=-0.1)


@pytest.mark.parametrize("field", ["feature_noise", "localization_jitter"])
def test_spec_rejects_nan(field):
    # a NaN noise level used to pass its check and then switch the noise off
    with pytest.raises(GenerationError):
        WorldSpec(**{field: float("nan")})


def test_class_names_cover_room_types_and_wall():
    assert set(CLASS_NAMES) >= {"office", "corridor", "kitchen", "common", "wall"}


def test_infeasible_spec_raises():
    # demanding far more demonstrations than a tiny world can label
    spec = WorldSpec(
        rooms_x=1,
        rooms_y=1,
        room_width=(3, 3),
        room_height=(3, 3),
        n_demonstrations=500,
        max_layout_retries=3,
    )
    with pytest.raises(GenerationError, match="infeasible"):
        generate_scene(spec, seed=0)


@pytest.mark.parametrize("n_scenes", [0, -1, 27])
def test_generate_dataset_rejects_scene_counts(n_scenes):
    # 0 scenes used to end in an IndexError, 27 in the scene id "scene_{"
    with pytest.raises(GenerationError, match="n_scenes must be in 1..26"):
        generate_dataset(PRESETS["mini"], seed=0, n_scenes=n_scenes)


@pytest.mark.parametrize("generate", [generate_scene, generate_dataset])
def test_generators_refuse_a_negative_seed(generate):
    # numpy's generators refuse it as "expected non-negative integer"
    with pytest.raises(GenerationError, match=r"^seed must be >= 0, got -1$"):
        generate(PRESETS["mini"], seed=-1)


def test_generate_dataset_names_26_scenes_a_to_z():
    spec = WorldSpec(rooms_x=1, room_width=(3, 3), room_height=(3, 3), n_demonstrations=1,
                     poses_per_room=1, corridor_poses=1)
    ids = [s.scene_id for s in generate_dataset(spec, seed=0, n_scenes=26).scenes]
    assert ids == [f"scene_{c}" for c in "abcdefghijklmnopqrstuvwxyz"]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"rooms_x": 2.5}, "rooms_x must be an integer, got 2.5"),
        ({"rooms_x": True}, "rooms_x must be an integer, got True"),
        ({"n_demonstrations": "60"}, "n_demonstrations must be an integer"),
        ({"max_layout_retries": None}, "max_layout_retries must be an integer"),
        ({"room_width": (6, 4)}, r"room_width range \(6, 4\) has lo > hi"),
        ({"room_height": (7, 5)}, r"room_height range \(7, 5\) has lo > hi"),
        ({"room_width": (4.5, 6)}, "room_width must be a .lo, hi. integer pair"),
        ({"room_height": (5,)}, "room_height must be a .lo, hi. integer pair"),
        ({"room_width": 5}, "room_width must be a .lo, hi. integer pair"),
    ],
)
def test_spec_rejects_bad_integer_fields(kwargs, message):
    with pytest.raises(GenerationError, match=message):
        WorldSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"feature_noise": "0.1"}, "feature_noise must be a number, got '0.1'"),
        ({"false_positive_rate": True}, "false_positive_rate must be a number, got True"),
        ({"feature_smoothing": None}, "feature_smoothing must be a number, got None"),
        ({"target_explored_ratio": [0.5]}, r"target_explored_ratio must be a number, got \[0.5\]"),
        ({"room_type_weights": (1, "a", 1)}, "room_type_weights must be 3 finite weights"),
    ],
)
def test_spec_rejects_bad_float_fields(kwargs, message):
    # checked by the annotation before any comparison can raise a TypeError
    with pytest.raises(GenerationError, match=message):
        WorldSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"poses_per_room": -2}, "poses_per_room must be >= 0, got -2"),
        ({"corridor_poses": -1}, "corridor_poses must be >= 0, got -1"),
        ({"object_margin": -1}, "object_margin must be >= 0, got -1"),
        ({"corridor_height": 0}, "corridor_height must be >= 1, got 0"),
        ({"max_layout_retries": 0}, "max_layout_retries must be >= 1, got 0"),
        ({"room_type_weights": (0, 0, 0)}, "room_type_weights must be 3 finite weights"),
        ({"room_type_weights": (1.0, float("nan"), 0.0)}, "room_type_weights must be"),
        ({"room_type_weights": (1.0, float("inf"), 0.0)}, "room_type_weights must be"),
        ({"room_type_weights": (1.0, -0.5, 1.0)}, "room_type_weights must be"),
        ({"room_type_weights": (1.0, 1.0)}, "room_type_weights must be"),
        ({"target_explored_ratio": 1.5}, r"target_explored_ratio must be in \[0, 1\]"),
        ({"target_action_ratio": -0.1}, r"target_action_ratio must be in \[0, 1\]"),
        ({"target_action_ratio": float("nan")}, "target_action_ratio must be in"),
        ({"feature_noise": float("inf")}, "feature_noise must be finite and >= 0, got inf"),
        ({"localization_jitter": float("inf")}, "localization_jitter must be finite and >= 0"),
    ],
)
def test_spec_rejects_out_of_range_fields(kwargs, message):
    # each of these used to generate silently, or to fail later with a
    # misleading message ("after 0 retries", numpy's "contain NaN")
    with pytest.raises(GenerationError, match=message):
        WorldSpec(**kwargs)


def test_spec_accepts_numpy_integers_and_equal_bounds():
    spec = WorldSpec(rooms_x=np.int64(2), room_width=(np.int32(5), 5))
    assert spec.rooms_x == 2 and spec.room_width == (5, 5)


def test_spec_refuses_a_bool_inside_a_range():
    with pytest.raises(GenerationError, match=r"room_width must be a \(lo, hi\) integer pair"):
        WorldSpec(room_width=(True, 5))


def test_spec_accepts_numpy_scalars_in_every_kind_of_field():
    spec = WorldSpec(n_demonstrations=np.int16(7), feature_noise=np.int64(0),
                     target_action_ratio=np.float32(0.5),
                     room_type_weights=(np.int64(1), np.float64(0.5), 0))
    assert spec.n_demonstrations == 7 and spec.room_type_weights[0] == 1


@st.composite
def small_specs(draw):
    """Small worlds, with branches no preset takes: object margins 1-2, false
    positives, misses, one or two rows of rooms, jitter 0 and above 0."""
    width, height = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    return WorldSpec(
        rooms_x=draw(st.integers(1, 3)),
        rooms_y=draw(st.sampled_from([1, 2])),
        room_width=(width, width + draw(st.integers(0, 2))),
        room_height=(height, height + draw(st.integers(0, 2))),
        corridor_height=draw(st.integers(1, 2)),
        feature_noise=draw(st.sampled_from([0.0, 0.05])),
        detection_miss_rate=draw(st.sampled_from([0.0, 0.5])),
        false_positive_rate=draw(st.sampled_from([0.0, 0.1])),
        localization_jitter=draw(st.just(0.0) | st.floats(0.1, 3.0)),
        object_margin=draw(st.integers(0, 2)),
        poses_per_room=draw(st.integers(0, 3)),
        corridor_poses=draw(st.integers(0, 3)),
        n_demonstrations=draw(st.integers(0, 30)),
        target_explored_ratio=draw(st.none() | st.sampled_from([0.4, 0.7])),
        max_layout_retries=draw(st.integers(1, 3)),
    )


@settings(max_examples=60, deadline=None)
@given(spec=small_specs(), seed=st.integers(0, 10_000))
def test_generation_properties(spec, seed):
    try:
        scene, p, o = generate_scene(spec, seed)
    except GenerationError:
        return  # the one exception generation may raise
    again, p2, o2 = generate_scene(spec, seed)
    assert np.array_equal(p, p2) and np.array_equal(o, o2)
    assert np.array_equal(scene.explored, again.explored)
    assert np.array_equal(scene.labels, again.labels)
    assert scene.poses == again.poses
    demos = scene.demonstrations
    assert _demo_triples(demos) == _demo_triples(again.demonstrations)
    pairs = list(zip(demos.rows.tolist(), demos.activities.tolist()))
    assert len(set(pairs)) == len(pairs) <= spec.n_demonstrations
    if spec.localization_jitter == 0:
        assert scene.labels[demos.rows, demos.activities].all()


@settings(max_examples=80, deadline=None)
@given(
    mask=hnp.arrays(bool, st.tuples(st.integers(1, 7), st.integers(1, 7))),
    di=st.integers(-9, 9),
    dj=st.integers(-9, 9),
    margin=st.integers(0, 4),
)
def test_shifted_and_interior_match_cell_loops(mask, di, dj, margin):
    # the loops the array versions replaced; shifts may leave the grid whole
    w, h = mask.shape

    def at(i, j, fill):
        return mask[i, j] if 0 <= i < w and 0 <= j < h else fill

    shifted = [[at(i + di, j + dj, True) for j in range(h)] for i in range(w)]
    assert np.array_equal(_shifted(mask, di, dj, True), np.array(shifted, dtype=bool))
    square = range(-margin, margin + 1)
    interior = [[all(at(i + a, j + b, False) for a in square for b in square) for j in range(h)]
                for i in range(w)]
    assert np.array_equal(_interior(mask, margin), np.array(interior, dtype=bool))
