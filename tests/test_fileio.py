import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from actionmaps import fileio
from actionmaps.evaluation import pose_views
from actionmaps.scene import ActivityVocabulary, Demonstrations, GlobalIndex, GridPose, SceneGrid
from actionmaps.solver import FactorPair
from actionmaps.textfmt import fmt9, q9


def _scene_files(ds, tmp_path):
    return fileio.write_dataset(ds, tmp_path / "data")


def _demo_triples(demos):
    """(row, activity, value) of every demonstration, in order."""
    return list(zip(demos.rows.tolist(), demos.activities.tolist(), demos.values.tolist()))


def test_scene_round_trip_exact(mini_dataset, tmp_path):
    scene = mini_dataset.scenes[0]
    p, o = mini_dataset.features[scene.scene_id]
    path = tmp_path / "scene.scene"
    fileio.write_scene(scene, p, o, mini_dataset.class_names, mini_dataset.category_names, path)
    loaded, p2, o2, cls, cats = fileio.read_scene(path)
    assert loaded.scene_id == scene.scene_id
    assert (loaded.width, loaded.height) == (scene.width, scene.height)
    assert loaded.cell_size_m == scene.cell_size_m
    assert loaded.vocabulary.names == scene.vocabulary.names
    assert np.array_equal(loaded.explored, scene.explored)
    assert loaded.labelled_cells() == scene.labelled_cells()
    assert _demo_triples(loaded.demonstrations) == _demo_triples(scene.demonstrations)
    assert loaded.poses == scene.poses
    assert np.array_equal(p2, p) and np.array_equal(o2, o)
    assert cls == mini_dataset.class_names and cats == mini_dataset.category_names


def test_scene_write_read_write_bytes_stable(mini_dataset, tmp_path):
    scene = mini_dataset.scenes[0]
    p, o = mini_dataset.features[scene.scene_id]
    p1 = tmp_path / "a.scene"
    p2 = tmp_path / "b.scene"
    fileio.write_scene(scene, p, o, mini_dataset.class_names, mini_dataset.category_names, p1)
    loaded, lp, lo, cls, cats = fileio.read_scene(p1)
    fileio.write_scene(loaded, lp, lo, cls, cats, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_round_trip(pair_dataset, tmp_path):
    manifest = _scene_files(pair_dataset, tmp_path)
    loaded = fileio.load_dataset(manifest)
    assert [s.scene_id for s in loaded.scenes] == [s.scene_id for s in pair_dataset.scenes]
    assert loaded.catmap.mapping == pair_dataset.catmap.mapping
    for scene in pair_dataset.scenes:
        got_p, got_o = loaded.features[scene.scene_id]
        want_p, want_o = pair_dataset.features[scene.scene_id]
        assert np.array_equal(got_p, want_p)
        assert np.array_equal(got_o, want_o)


def test_schema_version_mismatch(tmp_path):
    path = tmp_path / "bad.scene"
    path.write_text("amscene 99\nend\n")
    with pytest.raises(fileio.SchemaError, match="schema-version mismatch"):
        fileio.read_scene(path)


def test_missing_file_error(tmp_path):
    with pytest.raises(fileio.SchemaError, match="cannot read"):
        fileio.read_scene(tmp_path / "nope.scene")


def test_malformed_line_reports_context(tmp_path):
    lines = [
        "amscene 1",
        "scene s",
        "dims 2 2 0.25",
        "activities 2 sit wash",
        "classes 1 c",
        "categories 1 f",
        "explored 1",
        "0 zero",  # bad integer on line 8
    ]
    path = tmp_path / "bad.scene"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.SchemaError, match=r"bad\.scene:8"):
        fileio.read_scene(path)


@pytest.mark.parametrize("dims, message", [
    ("0 5 0.25", r"grid dims must be >= 1, got 0x5"),
    ("5 -2 0.25", r"grid dims must be >= 1, got 5x-2"),
    ("5 5 0", r"cell size must be positive, got 0\.0"),
    ("5 5 -1", r"cell size must be positive, got -1\.0"),
], ids=["zero-width", "negative-height", "zero-cell-size", "negative-cell-size"])
def test_bad_dims_report_their_own_line(tmp_path, dims, message):
    # the dims were checked only when the empty grid was built, after the
    # categories line, so these failed at line 6
    lines = ["amscene 1", "scene s", f"dims {dims}", "activities 2 sit wash",
             "classes 1 c", "categories 1 f", "explored 0"]
    path = tmp_path / "dims.scene"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.SchemaError, match=rf"dims\.scene:3: {message}"):
        fileio.read_scene(path)


def test_handwritten_fixture_parses():
    import textwrap

    doc = textwrap.dedent(
        """\
        amscene 1
        scene tiny
        dims 2 2 0.5
        activities 2 sit wash
        classes 2 room wall
        categories 1 chair
        explored 2
        0 0
        1 1
        gt 1
        0 0 2 0 1
        demos 1
        0 0 0 0.75
        poses 1
        0.5 0.5 1 0
        features 4
        0 0 0.9 0.1 0.2
        0 1 0.8 0.2 0
        1 0 0.7 0.3 0
        1 1 0.6 0.4 0.1
        end
        """
    )
    import os, tempfile

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "tiny.scene")
        with open(path, "w") as fh:
            fh.write(doc)
        scene, p, o, cls, cats = fileio.read_scene(path)
    assert scene.scene_id == "tiny"
    assert scene.cell_size_m == 0.5
    assert scene.vocabulary.names == ("sit", "wash")
    assert scene.explored.tolist() == [True, False, False, True]  # cells (0, 0) and (1, 1)
    assert scene.labels[scene.row_of((0, 0))].tolist() == [True, True]
    assert _demo_triples(scene.demonstrations) == [(0, 0, 0.75)]
    assert scene.poses[0] == GridPose((0.5, 0.5), (1.0, 0.0))
    assert p[0].tolist() == [0.9, 0.1]
    assert o[3].tolist() == [0.1]
    assert cls == ("room", "wall") and cats == ("chair",)


def test_repeated_demo_line_keeps_the_largest_value(tmp_path):
    # a (cell, activity) pair keeps its first place and its largest value;
    # its cell counts as explored although the explored section omits it
    lines = [
        "amscene 1", "scene s", "dims 2 2 0.25", "activities 2 sit wash",
        "classes 1 room", "categories 1 chair", "explored 0", "gt 0",
        "demos 4", "1 1 0 0.4", "0 0 1 0.5", "1 1 0 0.9", "1 1 0 0.2", "poses 0",
        "features 4", "0 0 1 0", "0 1 1 0", "1 0 1 0", "1 1 1 0", "end",
    ]
    path = tmp_path / "repeat.scene"
    path.write_text("\n".join(lines) + "\n")
    scene = fileio.read_scene(path)[0]
    assert _demo_triples(scene.demonstrations) == [(3, 0, 0.9), (0, 1, 0.5)]
    assert scene.explored.tolist() == [True, False, False, True]
    assert scene.stats().demo_count == 2


def test_factors_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    factors = FactorPair(U=rng.uniform(0, 1, (6, 3)), V=rng.uniform(0, 1, (4, 3)))
    path = tmp_path / "factors.txt"
    fileio.write_factors(factors, path)
    loaded = fileio.read_factors(path)
    assert np.allclose(loaded.U, factors.U, rtol=1e-8)
    assert np.allclose(loaded.V, factors.V, rtol=1e-8)
    # quantized values survive a second round trip bit-exactly
    path2 = tmp_path / "factors2.txt"
    fileio.write_factors(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_action_map_round_trip(mini_dataset, tmp_path):
    index = mini_dataset.index()
    rng = np.random.default_rng(1)
    am = np.array([[q9(v) for v in row] for row in rng.uniform(0, 1, (index.total_rows, 6))])
    path = tmp_path / "am.txt"
    fileio.write_action_map(am, index, path)
    loaded = fileio.read_action_map(path, index)
    assert np.array_equal(loaded, am)


# disk values: finite, non-negative and already at the 9 digits written
_Q9 = st.floats(0.0, 1e300, allow_subnormal=False).map(q9)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 8), st.integers(1, 5), st.integers(1, 4)),
    data=st.data(),
)
def test_factors_round_trip_property(shape, data):
    m, a, d = shape
    factors = FactorPair(
        U=data.draw(hnp.arrays(float, (m, d), elements=_Q9)),
        V=data.draw(hnp.arrays(float, (a, d), elements=_Q9)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "factors.txt")
        fileio.write_factors(factors, path)
        loaded = fileio.read_factors(path)
    assert np.array_equal(loaded.U, factors.U)
    assert np.array_equal(loaded.V, factors.V)


@settings(max_examples=60, deadline=None)
@given(
    grids=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
    n_act=st.integers(1, 4),
    data=st.data(),
)
def test_action_map_round_trip_property(grids, n_act, data):
    vocab = ActivityVocabulary(tuple(f"act{k}" for k in range(n_act)))
    index = GlobalIndex(
        [SceneGrid(f"s{k}", w, h, 0.25, vocab) for k, (w, h) in enumerate(grids)]
    )
    am = data.draw(hnp.arrays(float, (index.total_rows, n_act), elements=_Q9))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "am.txt")
        fileio.write_action_map(am, index, path)
        loaded = fileio.read_action_map(path, index)
    assert np.array_equal(loaded, am)


@st.composite
def _drawn_scenes(draw):
    """A scene with explored cells, labels, demonstrations (in drawn order)
    and poses drawn as arrays at the precision written to disk, plus its
    feature rows."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n_cells = width * height
    vocab = ActivityVocabulary(("sit", "type", "wash"))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n_cells - 1), st.integers(0, len(vocab) - 1)),
            max_size=12, unique=True,
        )
    )
    values = draw(st.lists(st.floats(0.0, 1.0).map(q9), min_size=len(pairs), max_size=len(pairs)))
    coord = st.floats(-2.0, 8.0).map(q9)
    poses = [
        GridPose((x, y), (q9(math.cos(angle)), q9(math.sin(angle))))
        for x, y, angle in draw(st.lists(st.tuples(coord, coord, st.floats(0.0, 6.3)), max_size=5))
    ]
    scene = SceneGrid(
        "s", width, height, draw(st.floats(0.01, 10.0).map(q9)), vocab,
        explored=draw(hnp.arrays(bool, n_cells)),
        labels=draw(hnp.arrays(bool, (n_cells, len(vocab)))),
        demonstrations=Demonstrations([r for r, _ in pairs], [a for _, a in pairs], values),
        poses=poses,
    )
    p = draw(hnp.arrays(float, (scene.n_cells, 2), elements=_Q9))
    o = draw(hnp.arrays(float, (scene.n_cells, 1), elements=_Q9))
    return scene, p, o


@settings(max_examples=80, deadline=None)
@given(drawn=_drawn_scenes())
def test_scene_round_trip_property(drawn):
    scene, p, o = drawn
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.scene"), os.path.join(tmp, "b.scene")
        fileio.write_scene(scene, p, o, ("room", "wall"), ("chair",), first)
        loaded, p2, o2, cls, cats = fileio.read_scene(first)
        fileio.write_scene(loaded, p2, o2, cls, cats, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    assert (loaded.width, loaded.height, loaded.cell_size_m) == (
        scene.width, scene.height, scene.cell_size_m
    )
    assert np.array_equal(loaded.labels, scene.labels)
    assert np.array_equal(loaded.explored, scene.explored)
    assert _demo_triples(loaded.demonstrations) == _demo_triples(scene.demonstrations)
    assert loaded.poses == scene.poses
    assert np.array_equal(p2, p) and np.array_equal(o2, o)
    assert (cls, cats) == (("room", "wall"), ("chair",))


@pytest.mark.parametrize("fixture", ["mini_dataset", "pair_dataset"])
def test_loaded_dataset_gives_same_features_and_views(request, fixture, tmp_path):
    dataset = request.getfixturevalue(fixture)
    loaded = fileio.load_dataset(fileio.write_dataset(dataset, tmp_path / "data"))
    want, got = dataset.location_features(), loaded.location_features()
    for name in ("x", "p", "o", "scene_codes"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    want_views = pose_views(dataset.index())
    got_views = pose_views(loaded.index())
    assert got_views.n_rows == want_views.n_rows
    assert len(got_views.rows) == len(want_views.rows) > 0
    for got_rows, want_rows in zip(got_views.rows, want_views.rows):
        assert np.array_equal(got_rows, want_rows)
    assert np.array_equal(got_views.gt, want_views.gt)
    for got_scene, want_scene in zip(loaded.scenes, dataset.scenes):
        assert np.array_equal(got_scene.labels, want_scene.labels)


def test_trace_format(tmp_path):
    path = tmp_path / "trace.tsv"
    fileio.write_trace(np.array([3.0, 2.0, 1.5]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration\tobjective"
    assert lines[1] == "0\t3"
    assert lines[3] == "2\t1.5"


def test_pgm_codec(tmp_path):
    values = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "map.pgm"
    fileio.write_pgm(values, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    # pixel (i, j) = round(255 * value): row j lists i = 0, 1
    assert lines[3].split() == [str(int(np.floor(0.0 * 255 + 0.5))), str(int(np.floor(1.0 * 255 + 0.5)))]
    assert lines[4].split() == [str(int(np.floor(0.5 * 255 + 0.5))), str(int(np.floor(0.25 * 255 + 0.5)))]
    with pytest.raises(ValueError):
        fileio.write_pgm(np.array([[1.5]]), tmp_path / "bad.pgm")
    with pytest.raises(ValueError):
        fileio.write_pgm(np.array([[0.5, np.nan]]), tmp_path / "nan.pgm")


def test_catmap_round_trip(mini_dataset, tmp_path):
    path = tmp_path / "catmap.txt"
    fileio.write_catmap(
        mini_dataset.catmap,
        mini_dataset.category_names,
        mini_dataset.vocabulary.names,
        path,
    )
    catmap, cats, acts = fileio.read_catmap(path)
    assert catmap.mapping == mini_dataset.catmap.mapping
    assert cats == mini_dataset.category_names
    assert acts == mini_dataset.vocabulary.names


def test_fmt9_q9_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = float(rng.uniform(-1e3, 1e3))
        assert float(fmt9(q9(x))) == q9(x)


# -- malformed documents --------------------------------------------------------


def _replace_line(path, tag, template):
    """Replace the first line starting with `tag` by template, where {line}
    stands for the old line; returns its 1-based number."""
    lines = path.read_text().splitlines()
    lineno = next(k for k, line in enumerate(lines) if line.split()[:1] == [tag])
    lines[lineno] = template.format(line=lines[lineno])
    path.write_text("\n".join(lines) + "\n")
    return lineno + 1


@pytest.mark.parametrize(
    "doc,tag,template",
    [
        ("catmap.txt", "map", "map"),
        ("catmap.txt", "map", "map 6 7"),
        ("catmap.txt", "activities", "activities"),
        ("dataset.txt", "scenes", "scenes"),
        ("dataset.txt", "scenes", "scenes 0"),
        ("dataset.txt", "catmap", "catmap"),
        ("office_a.scene", "scene", "scene"),
        ("office_a.scene", "explored", "{line} 9"),
        ("office_a.scene", "activities", "activities"),
        ("office_a.scene", "classes", "classes"),
        ("office_a.scene", "categories", "categories 2"),
        ("office_a.scene", "gt", "gt"),
        ("office_a.scene", "demos", "demos -1"),
        ("office_a.scene", "poses", "{line} 1"),
        ("office_a.scene", "features", "features"),
    ],
)
def test_malformed_header_reports_path_and_line(pair_dataset, tmp_path, doc, tag, template):
    manifest = _scene_files(pair_dataset, tmp_path)
    lineno = _replace_line(tmp_path / "data" / doc, tag, template)
    with pytest.raises(fileio.SchemaError, match=re.escape(f"{doc}:{lineno}: ")):
        fileio.load_dataset(manifest)


def test_rejected_values_report_path_and_line(pair_dataset, tmp_path):
    # values the scene objects refuse are reported at the line that holds them
    manifest = _scene_files(pair_dataset, tmp_path)
    path = tmp_path / "data" / "office_b.scene"
    lines = path.read_text().splitlines()
    first_demo = lines.index(next(line for line in lines if line.startswith("demos "))) + 1
    i, j, _act, value = lines[first_demo].split()
    lines[first_demo] = f"{i} {j} 99 {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.SchemaError, match=rf"office_b\.scene:{first_demo + 1}: .*activity"):
        fileio.load_dataset(manifest)


def test_negative_demo_value_reports_path_and_line(pair_dataset, tmp_path):
    manifest = _scene_files(pair_dataset, tmp_path)
    path = tmp_path / "data" / "office_b.scene"
    lines = path.read_text().splitlines()
    first_demo = lines.index(next(line for line in lines if line.startswith("demos "))) + 1
    lines[first_demo] = lines[first_demo].rsplit(maxsplit=1)[0] + " -0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.SchemaError, match=rf"office_b\.scene:{first_demo + 1}: .*>= 0"):
        fileio.load_dataset(manifest)


def test_repeated_catmap_category_reports_path_and_line(tmp_path):
    # a second line for a category would silently replace the first
    path = tmp_path / "catmap.txt"
    path.write_text(
        "amcatmap 1\ncategories 1 chair\nactivities 2 sit type\n"
        "map 2\nchair sit\nchair type\nend\n"
    )
    with pytest.raises(fileio.SchemaError, match=r"catmap\.txt:6: category 'chair' is mapped twice"):
        fileio.read_catmap(path)


def test_repeated_manifest_scene_reports_path_and_line(pair_dataset, tmp_path):
    manifest = _scene_files(pair_dataset, tmp_path)
    with open(manifest) as fh:
        lines = fh.read().splitlines()
    assert lines[1:4] == ["scenes 2", "office_a.scene", "office_b.scene"]
    lines[3] = "office_a.scene"
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(fileio.SchemaError, match=r"dataset\.txt:4: scene id 'office_a' repeats"):
        fileio.load_dataset(manifest)


def test_scene_with_other_names_reports_its_manifest_line(pair_dataset, tmp_path):
    manifest = _scene_files(pair_dataset, tmp_path)
    scene = tmp_path / "data" / "office_b.scene"
    scene.write_text(scene.read_text().replace(" common ", " lounge ", 1))
    with pytest.raises(fileio.SchemaError,
                       match=r"dataset\.txt:4: scene 'office_b' uses different class/category"):
        fileio.load_dataset(manifest)


def test_scene_with_other_activity_names_reports_its_manifest_line(pair_dataset, tmp_path):
    # the first pipeline used to fail on it, with no path or line
    manifest = _scene_files(pair_dataset, tmp_path)
    scene = tmp_path / "data" / "office_b.scene"
    lines = scene.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("activities "))
    tag, count, first, *rest = lines[at].split()
    assert first != "sat"
    lines[at] = " ".join([tag, count, "sat", *rest])
    scene.write_text("\n".join(lines) + "\n")
    fileio.read_scene(scene)  # the document itself is well formed
    with pytest.raises(fileio.SchemaError,
                       match=r"dataset\.txt:4: scene 'office_b' uses different class/category/"
                             r"activity names"):
        fileio.load_dataset(manifest)


@pytest.mark.parametrize("line, message", [
    ("categories 6 desk chair sink door whiteboard bookshelf", "category map names"),
    ("activities 6 type sit open-door read write-whiteboard wash", "category map activities"),
])
def test_mismatched_catmap_reports_its_manifest_line(pair_dataset, tmp_path, line, message):
    manifest = _scene_files(pair_dataset, tmp_path)
    catmap = tmp_path / "data" / "catmap.txt"
    lines = catmap.read_text().splitlines()
    tag = line.split()[0]
    lines = [line if old.startswith(tag + " ") else old for old in lines]
    catmap.write_text("\n".join(lines) + "\n")
    fileio.read_catmap(catmap)  # the document itself is well formed
    with pytest.raises(fileio.SchemaError, match=rf"dataset\.txt:5: {message} do not match"):
        fileio.load_dataset(manifest)


@pytest.mark.parametrize("name, line", [("office_b.scene", 4), ("catmap.txt", 5)])
def test_missing_named_file_reports_its_manifest_line(pair_dataset, tmp_path, name, line):
    # the error used to name only the missing file, at its line 0
    manifest = _scene_files(pair_dataset, tmp_path)
    (tmp_path / "data" / name).unlink()
    pattern = rf"dataset\.txt:{line}: cannot read '{re.escape(name)}': \[Errno 2\] "
    with pytest.raises(fileio.SchemaError, match=pattern) as caught:
        fileio.load_dataset(manifest)
    assert caught.value.lineno == line and str(caught.value.path) == str(manifest)


def test_action_map_unknown_scene_reports_line(mini_dataset, tmp_path):
    index = mini_dataset.index()
    path = tmp_path / "am.txt"
    fileio.write_action_map(np.zeros((index.total_rows, len(index.vocabulary))), index, path)
    lines = path.read_text().splitlines()
    lines[3] = "elsewhere " + lines[3].split(maxsplit=1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.SchemaError, match=r"am\.txt:4: unknown scene"):
        fileio.read_action_map(path, index)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("section", ["demos", "poses", "features"])
def test_non_finite_scene_values_report_path_and_line(pair_dataset, tmp_path, section, token):
    manifest = _scene_files(pair_dataset, tmp_path)
    path = tmp_path / "data" / "office_b.scene"
    lines = path.read_text().splitlines()
    first = lines.index(next(line for line in lines if line.startswith(section + " "))) + 1
    toks = lines[first].split()
    toks[-1] = token
    lines[first] = " ".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.SchemaError, match=rf"office_b\.scene:{first + 1}: .*finite"):
        fileio.load_dataset(manifest)


@pytest.mark.parametrize("token, message", [
    ("nan", "expected a finite number"),
    ("inf", "expected a finite number"),
    ("-0.25", r"action map values must be >= 0, got -0\.25"),
], ids=["nan", "inf", "negative"])
def test_non_finite_action_map_values_report_path_and_line(mini_dataset, tmp_path, token,
                                                           message):
    index = mini_dataset.index()
    path = tmp_path / "am.txt"
    fileio.write_action_map(np.zeros((index.total_rows, len(index.vocabulary))), index, path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(maxsplit=1)[0] + " " + token
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.SchemaError, match=rf"am\.txt:6: {message}"):
        fileio.read_action_map(path, index)


@pytest.fixture(scope="module")
def pair_documents(pair_dataset, tmp_path_factory):
    manifest = fileio.write_dataset(pair_dataset, tmp_path_factory.mktemp("pair"))
    base = os.path.dirname(manifest)
    return {name: open(os.path.join(base, name)).read().splitlines() for name in os.listdir(base)}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_truncated_or_garbled_documents_raise_schema_error(pair_documents, data):
    docs = dict(pair_documents)
    name = data.draw(st.sampled_from(sorted(docs)), label="document")
    lines = list(docs[name])
    headers = [k for k, line in enumerate(lines) if line[:1].isalpha()]
    at = data.draw(
        st.one_of(st.sampled_from(headers), st.integers(0, len(lines) - 1)), label="line"
    )
    action = data.draw(st.sampled_from(["truncate", "drop", "add", "set"]), label="action")
    if action == "truncate":
        lines = lines[:at]
    else:
        tokens = lines[at].split()
        pos = data.draw(st.integers(0, len(tokens)), label="token")
        value = data.draw(st.sampled_from(["x", "nan", "-1"]), label="value")
        if action == "add":
            tokens.insert(pos, value)
        elif tokens:
            pos = min(pos, len(tokens) - 1)
            if action == "drop":
                del tokens[pos]
            else:
                tokens[pos] = value
        lines[at] = " ".join(tokens)
    docs[name] = lines
    with tempfile.TemporaryDirectory() as base:
        for doc, doc_lines in docs.items():
            with open(os.path.join(base, doc), "w") as fh:
                fh.write("".join(line + "\n" for line in doc_lines))
        try:
            fileio.load_dataset(os.path.join(base, "dataset.txt"))
        except fileio.SchemaError as exc:
            assert re.match(rf"{re.escape(base + os.sep)}[^:]+:\d+: ", str(exc)), str(exc)
