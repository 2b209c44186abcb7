import numpy as np
import pytest

from actionmaps.baselines import detection_action_map
from actionmaps.evaluation import score_action_map
from actionmaps.sideinfo import KernelConfig
from actionmaps.solver import normalize_action_map
from actionmaps.synthetic import (
    CLASS_NAMES,
    GenerationError,
    PRESETS,
    WorldSpec,
    generate_dataset,
    generate_scene,
    sample_demonstrations,
)
from tests.kernel_oracles import combined_kernel, locations

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
    assert sa.demonstrations == sb.demonstrations
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
    stats = dataset.scenes[0].stats()
    assert abs(stats.r_e - 0.59) <= 0.05
    assert abs(stats.r_a - 0.03) <= 0.01
    assert stats.demo_count == 90


def test_generated_ratios_ordering():
    for seed in range(4):
        ds = generate_dataset(PRESETS["pair"], seed=seed)
        st = ds.scenes[0].stats()
        assert 0 <= st.r_a <= st.r_e <= 1


def test_demos_are_gt_positive_without_jitter():
    spec = ZERO_NOISE
    scene, _p, _o = generate_scene(spec, seed=3)
    for demo in scene.demonstrations:
        assert demo.activity in scene.labels_at(demo.cell)


def test_every_labelled_activity_is_demonstrated():
    scene, _p, _o = generate_scene(ZERO_NOISE, seed=4)
    labelled = {a for _c, acts in scene.labelled_cells() for a in acts}
    demoed = {d.activity for d in scene.demonstrations}
    assert labelled == demoed


def test_sample_demonstrations_fractions():
    scene, _p, _o = generate_scene(ZERO_NOISE, seed=5)
    full = sample_demonstrations(scene, 1.0, seed=9)
    assert set(full) == set(scene.demonstrations)
    assert sample_demonstrations(scene, 0.0, seed=9) == ()
    with pytest.raises(GenerationError):
        sample_demonstrations(scene, 1.5, seed=9)


def test_sample_demonstrations_prefix_property():
    scene, _p, _o = generate_scene(ZERO_NOISE, seed=6)
    s10 = set(sample_demonstrations(scene, 0.1, seed=4))
    s50 = set(sample_demonstrations(scene, 0.5, seed=4))
    s100 = set(sample_demonstrations(scene, 1.0, seed=4))
    assert s10 <= s50 <= s100


def test_with_demo_fraction_dataset():
    ds = generate_dataset(PRESETS["mini"], seed=8)
    half = ds.with_demo_fraction(0.5, seed=2)
    n_full = ds.scenes[0].stats().demo_count
    assert half.scenes[0].stats().demo_count == round(0.5 * n_full)
    assert np.array_equal(half.scenes[0].explored, ds.scenes[0].explored)


def test_zero_noise_same_type_same_objects_kernel_is_one():
    # identical layouts in two scenes: cross-scene twin cells agree exactly,
    # so with alpha=1 the appearance kernels give similarity 1
    ds = generate_dataset(ZERO_NOISE, seed=7, n_scenes=2, identical_layouts=True)
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
    result = score_action_map(ds.scenes, ds.index(), am)
    present = result.gt_counts > 0
    assert np.allclose(result.per_activity_max[present], 1.0)


def test_spec_validation():
    with pytest.raises(GenerationError):
        WorldSpec(rooms_y=3)
    with pytest.raises(GenerationError):
        WorldSpec(detection_miss_rate=1.5)
    with pytest.raises(GenerationError):
        WorldSpec(feature_noise=-0.1)


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
