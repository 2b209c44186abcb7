import json

import numpy as np
import pytest

from actionmaps.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run(["generate", "--preset", "mini", "--seed", 5, "--out", out]) == 0
    return out / "dataset.txt"


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    assert (
        run(
            [
                "generate", "--preset", "pair", "--scenes", 2,
                "--scene-prefix", "office", "--seed", 4, "--out", out,
            ]
        )
        == 0
    )
    return out / "dataset.txt"


FIT_ARGS = [
    "--variant", "SOP", "--alpha", 0.5, "--gamma", 1.0, "--lam", 0.001,
    "--rank", 4, "--max-iters", 60, "--rel-tol", 1e-4,
]


def test_generate_then_fit_predict_evaluate(dataset_dir, tmp_path):
    factors = tmp_path / "factors.txt"
    trace = tmp_path / "trace.tsv"
    assert run(["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 3,
                "--out-factors", factors, "--out-trace", trace]) == 0
    assert factors.exists() and trace.exists()
    am = tmp_path / "am.txt"
    assert run(["predict", "--data", dataset_dir, "--factors", factors, "--out", am]) == 0
    txt, tsv = tmp_path / "eval.txt", tmp_path / "eval.tsv"
    assert run(["evaluate", "--data", dataset_dir, "--am", am,
                "--out-txt", txt, "--out-tsv", tsv]) == 0
    body = tsv.read_text()
    assert body.startswith("metric\tvalue")
    assert "w_mean_f1" in body


def test_pipeline_matches_grid_single_tuple(dataset_dir, tmp_path):
    # fit + predict + evaluate must reproduce the grid's single-tuple row
    factors = tmp_path / "factors.txt"
    assert run(["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 11,
                "--out-factors", factors]) == 0
    am = tmp_path / "am.txt"
    assert run(["predict", "--data", dataset_dir, "--factors", factors, "--out", am]) == 0
    txt, tsv = tmp_path / "eval.txt", tmp_path / "eval.tsv"
    assert run(["evaluate", "--data", dataset_dir, "--am", am,
                "--out-txt", txt, "--out-tsv", tsv]) == 0
    gtsv, gtxt = tmp_path / "grid.tsv", tmp_path / "grid.txt"
    assert run(["grid", "--data", dataset_dir, "--variants", "SOP",
                "--alphas", "0.5", "--lambdas", "0.001", "--gammas", "1.0",
                "--rank", 4, "--max-iters", 60, "--rel-tol", 1e-4,
                "--seed", 11, "--out-tsv", gtsv, "--out-txt", gtxt]) == 0
    grid_row = gtsv.read_text().splitlines()[1].split("\t")
    grid_metrics = [float(v) for v in grid_row[5:9]]
    eval_metrics = [
        float(line.split("\t")[1])
        for line in tsv.read_text().splitlines()[1:5]
    ]
    assert eval_metrics == pytest.approx(grid_metrics, abs=1e-9)


def test_transfer_report_rows(pair_dir, tmp_path):
    txt, tsv = tmp_path / "transfer.txt", tmp_path / "transfer.tsv"
    assert run(["transfer", "--data", pair_dir, "--source", "office_a",
                "--target", "office_b", "--variants", "SO,SP,SOP",
                "--alphas", "0.7", "--lambdas", "0.01", "--gammas", "0.5",
                "--rank", 4, "--max-iters", 60, "--rel-tol", 1e-4,
                "--seed", 2, "--out-txt", txt, "--out-tsv", tsv]) == 0
    lines = txt.read_text().splitlines()
    methods = [line.split()[0] for line in lines[1:]]
    assert methods == ["Det.", "NMF", "SO", "SP", "SOP"]
    header = lines[0]
    assert "W. Max F1" in header and "Mean F1" in header


def test_elapse_command(dataset_dir, tmp_path):
    out = tmp_path / "elapse.tsv"
    assert run(["elapse", "--data", dataset_dir, "--fractions", "0.5,1.0",
                *FIT_ARGS, "--seed", 6, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("fraction")
    assert len(lines) == 3


def test_localize_command(dataset_dir, tmp_path):
    factors = tmp_path / "factors.txt"
    run(["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 3, "--out-factors", factors])
    am = tmp_path / "am.txt"
    run(["predict", "--data", dataset_dir, "--factors", factors, "--out", am])
    out = tmp_path / "curve.tsv"
    assert run(["localize", "--data", dataset_dir, "--am", am, "--scene", "scene",
                "--k-max", 20, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k\tactivity\tmean_discrepancy"
    assert any("\tall\t" in line for line in lines[1:])


def test_export_heatmap_codec(dataset_dir, tmp_path):
    factors = tmp_path / "factors.txt"
    run(["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 3, "--out-factors", factors])
    am_path = tmp_path / "am.txt"
    run(["predict", "--data", dataset_dir, "--factors", factors, "--out", am_path])
    out_dir = tmp_path / "maps"
    assert run(["export-heatmap", "--data", dataset_dir, "--am", am_path,
                "--out-dir", out_dir]) == 0
    from actionmaps import fileio
    from actionmaps.fileio import read_action_map

    dataset = fileio.load_dataset(dataset_dir)
    index = dataset.index()
    am = read_action_map(am_path, index)
    scene = dataset.scenes[0]
    name = index.vocabulary.names[0]
    pgm = (out_dir / f"{scene.scene_id}_{name}.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == f"{scene.width} {scene.height}"
    # spot-check one pixel against the rounding rule
    i, j = 2, 1
    value = am[index.row(scene.scene_id, (i, j)), 0]
    expected = int(np.floor(value * 255 + 0.5))
    assert pgm[3 + j].split()[i] == str(expected)
    table = (out_dir / f"{scene.scene_id}_am.tsv").read_text().splitlines()
    assert table[0].split("\t")[:2] == ["i", "j"]


def test_config_file_overrides_flags(dataset_dir, tmp_path):
    factors_a = tmp_path / "a.txt"
    factors_b = tmp_path / "b.txt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.9, "max-iters": 40}))
    assert run(["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 3,
                "--out-factors", factors_a, "--config", cfg]) == 0
    assert run(["fit", "--data", dataset_dir, "--variant", "SOP", "--alpha", 0.9,
                "--gamma", 1.0, "--lam", 0.001, "--rank", 4, "--max-iters", 40,
                "--rel-tol", 1e-4, "--seed", 3, "--out-factors", factors_b]) == 0
    assert factors_a.read_bytes() == factors_b.read_bytes()


def test_config_rejects_unknown_key(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no-such-flag": 1}))
    code = run(["fit", "--data", dataset_dir, "--seed", 3,
                "--out-factors", tmp_path / "f.txt", "--config", cfg])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_fit_mu_without_activity_kernel_fails(dataset_dir, tmp_path, capsys):
    factors = tmp_path / "f.txt"
    code = run(["fit", "--data", dataset_dir, "--mu", 0.5, "--seed", 1,
                "--out-factors", factors])
    assert code == 1
    assert "error: mu > 0 requires an activity kernel" in capsys.readouterr().err
    assert not factors.exists()


def test_missing_data_file_fails(tmp_path, capsys):
    code = run(["fit", "--data", tmp_path / "missing.txt", "--seed", 1,
                "--out-factors", tmp_path / "f.txt"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_generate_with_spec_json(tmp_path):
    spec = {
        "rooms_x": 2,
        "rooms_y": 1,
        "room_width": [4, 5],
        "room_height": [4, 4],
        "n_demonstrations": 8,
        "localization_jitter": 0.0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "ds"
    assert run(["generate", "--spec-json", spec_path, "--seed", 2, "--out", out]) == 0
    assert (out / "dataset.txt").exists()


def test_generate_unknown_preset(tmp_path, capsys):
    code = run(["generate", "--preset", "bogus", "--seed", 1, "--out", tmp_path])
    assert code == 1
    assert "unknown preset" in capsys.readouterr().err
