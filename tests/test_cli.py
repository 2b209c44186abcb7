import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.fixture(scope="module")
def mini_pair_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_pair")
    assert run(["generate", "--preset", "mini", "--scenes", 2, "--scene-prefix", "office",
                "--seed", 5, "--out", out]) == 0
    return out / "dataset.txt"


def test_transfer_outputs_equal_with_reference_gram(mini_pair_dir, tmp_path, monkeypatch):
    # the blocked, mirrored gram() and the whole-matrix oracle write the same
    # bytes; m = 216 spans four row blocks and two scenes
    from actionmaps.fileio import load_dataset
    from actionmaps.sideinfo import GramBasis
    from tests.kernel_oracles import gram_reference

    def outputs(out):
        assert run(["transfer", "--data", mini_pair_dir, "--source", "office_a",
                    "--target", "office_b", "--variants", "S,SO,SP,SOP",
                    "--alphas", "0.3,0.9", "--lambdas", "0.01", "--gammas", "0.5,100",
                    "--rank", 4, "--max-iters", 30, "--rel-tol", 1e-4, "--seed", 2,
                    "--out-txt", out / "t.txt", "--out-tsv", out / "t.tsv"]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    blocked = outputs(tmp_path / "blocked")
    features = load_dataset(mini_pair_dir).location_features()
    calls = []

    def reference_gram(self, cfg):
        calls.append(cfg)
        return gram_reference(features, cfg)

    monkeypatch.setattr(GramBasis, "gram", reference_gram)
    assert outputs(tmp_path / "reference") == blocked
    # one Gram per key: S's spatial one, then 3 variants x 2 alphas x 2 gammas
    assert len(calls) == 13 and set(blocked) >= {"t.txt", "t.tsv"}


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


def _fail_on_load(monkeypatch):
    from actionmaps import cli

    def no_load(path):
        raise AssertionError("the dataset is loaded before the arguments are checked")

    monkeypatch.setattr(cli, "_load_data", no_load)


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command", ["fit", "grid", "transfer"])
def test_mu_other_than_zero_fails_before_loading(dataset_dir, pair_dir, tmp_path, capsys,
                                                 monkeypatch, command, how):
    # the solver has no activity kernel; --mu stays for scripts that pass 0
    _fail_on_load(monkeypatch)
    out = tmp_path / "out"
    args = (["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 1, "--out-factors", out / "f"]
            if command == "fit" else _sweep_command(command, dataset_dir, pair_dir, out))
    if how == "flag":
        args += ["--mu", 0.5]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"mu": 0.5}))
        args += ["--config", tmp_path / "cfg.json"]
    assert run(args) == 1
    assert "error: --mu must be 0 (the solver has no activity kernel), got 0.5" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_fit_mu_zero_writes_the_same_bytes(dataset_dir, tmp_path):
    args = ["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 2]
    assert run([*args, "--out-factors", tmp_path / "a.txt", "--mu", 0]) == 0
    assert run([*args, "--out-factors", tmp_path / "b.txt"]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("grid", {"alphas": [0.5]}, "config key 'alphas' takes one value, got [0.5]"),
        ("fit", {"max_iters": "five"}, "config key 'max_iters' has an invalid value 'five'"),
        ("fit", {"max_iters": 2.5}, "config key 'max_iters' has an invalid value '2.5'"),
        ("fit", {"alpha": None}, "config key 'alpha' takes one value, got null"),
        ("fit", {"variant": "SPO"}, "config key 'variant' must be one of ['S', 'SO',"),
    ],
)
def test_config_values_fail_like_flags(dataset_dir, tmp_path, capsys, monkeypatch,
                                       command, config, message):
    # a list used to end in AttributeError and a string count in TypeError
    _fail_on_load(monkeypatch)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    args = {"fit": ["fit", "--data", dataset_dir, "--seed", 1, "--out-factors", tmp_path / "f"],
            "grid": _sweep_command("grid", dataset_dir, None, tmp_path)}[command]
    assert run([*args, "--config", tmp_path / "cfg.json"]) == 1
    assert f"cfg.json: {message}" in capsys.readouterr().err


def test_config_string_value_converts_like_the_flag(dataset_dir, tmp_path):
    # {"max_iters": "5"} runs as --max-iters 5 does
    (tmp_path / "cfg.json").write_text(json.dumps({"max_iters": "5", "alpha": "0.25"}))
    args = ["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 4]
    cfg = ["--config", tmp_path / "cfg.json"]
    assert run([*args, "--out-factors", tmp_path / "a.txt", *cfg]) == 0
    flags = list(args)
    flags[flags.index("--max-iters") + 1] = 5
    flags[flags.index("--alpha") + 1] = 0.25
    assert run([*flags, "--out-factors", tmp_path / "b.txt"]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


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


def test_fit_rejects_negative_max_iters(dataset_dir, tmp_path, capsys):
    factors = tmp_path / "f.txt"
    code = run(["fit", "--data", dataset_dir, "--max-iters", -3, "--seed", 1,
                "--out-factors", factors])
    assert code == 1
    assert "error: max_iters must be >= 0" in capsys.readouterr().err
    assert not factors.exists()


@pytest.mark.parametrize(
    "max_iters, rel_tol, reason",
    [(2000, 1e-2, "tolerance"), (2, 1e-12, "max_iters")],
)
def test_fit_reports_stop_reason(dataset_dir, tmp_path, capsys, max_iters, rel_tol, reason):
    args = list(FIT_ARGS)
    args[args.index("--max-iters") + 1] = max_iters
    args[args.index("--rel-tol") + 1] = rel_tol
    assert run(["fit", "--data", dataset_dir, *args, "--seed", 3,
                "--out-factors", tmp_path / "f.txt"]) == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split()[1:])
    assert fields["stop"] == reason
    iterations = int(fields["iterations"])
    assert iterations == max_iters if reason == "max_iters" else iterations < max_iters


GRID_ARGS = [
    "--variants", "SOP", "--lambdas", "0.01", "--gammas", "1.0",
    "--rank", 3, "--max-iters", 5, "--rel-tol", 1e-4, "--seed", 1,
]


@pytest.mark.parametrize(
    "alphas, code, message",
    [
        ("1.5", 1, "error: all 1 runs failed"),
        ("0.5,1.5", 0, "warning: 1 of 2 runs failed"),
        ("0.5", 0, ""),
    ],
)
def test_grid_reports_failed_runs(dataset_dir, tmp_path, capsys, alphas, code, message):
    tsv, txt = tmp_path / "grid.tsv", tmp_path / "grid.txt"
    assert run(["grid", "--data", dataset_dir, "--alphas", alphas, *GRID_ARGS,
                "--out-tsv", tsv, "--out-txt", txt]) == code
    err = capsys.readouterr().err
    if message:
        assert message in err
    else:
        assert err == ""
    rows = tsv.read_text().splitlines()[1:]
    assert len(rows) == len(alphas.split(","))
    assert txt.exists()


@pytest.mark.parametrize(
    "alphas, code, message",
    [
        ("1.5", 1, "error: all 3 runs failed"),
        ("0.5,1.5", 0, "warning: 3 of 6 runs failed"),
    ],
)
def test_transfer_reports_failed_runs(pair_dir, tmp_path, capsys, alphas, code, message):
    txt, tsv = tmp_path / "transfer.txt", tmp_path / "transfer.tsv"
    assert run(["transfer", "--data", pair_dir, "--source", "office_a",
                "--target", "office_b", "--variants", "SO,SP,SOP", "--alphas", alphas,
                *GRID_ARGS[2:], "--out-txt", txt, "--out-tsv", tsv]) == code
    assert message in capsys.readouterr().err
    assert txt.exists() and tsv.exists()


@pytest.mark.parametrize(
    "source, target, named",
    [("office_a", "office_a", "['office_a']"), ("", "office_b", "['office_b']"),
     ("office_a", "", "['office_a']")],
)
def test_transfer_refuses_scene_lists_that_void_the_comparison(
    pair_dir, tmp_path, capsys, source, target, named
):
    # the same scene as source and target, or no source, used to exit 0 with
    # a report; no target failed only for want of camera poses
    txt, tsv = tmp_path / "transfer.txt", tmp_path / "transfer.tsv"
    assert run(["transfer", "--data", pair_dir, "--source", source, "--target", target,
                *GRID_ARGS, "--out-txt", txt, "--out-tsv", tsv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: transfer") and named in err
    assert not txt.exists() and not tsv.exists()


@pytest.mark.parametrize("source, target", [("office_a,typo", "office_b"), ("typo", "")])
def test_transfer_refuses_an_unknown_scene_first(pair_dir, tmp_path, capsys, source, target):
    txt, tsv = tmp_path / "transfer.txt", tmp_path / "transfer.tsv"
    assert run(["transfer", "--data", pair_dir, "--source", source, "--target", target,
                *GRID_ARGS, "--out-txt", txt, "--out-tsv", tsv]) == 1
    assert capsys.readouterr().err == "error: unknown scene 'typo'\n"
    assert not txt.exists() and not tsv.exists()


def test_every_command_creates_missing_output_directories(dataset_dir, pair_dir, tmp_path):
    new = tmp_path / "not" / "yet"
    fit_out = [new / "fit" / "factors.txt", new / "fit" / "trace" / "trace.tsv"]
    commands = [
        ["generate", "--preset", "mini", "--seed", 5, "--out", new / "data"],
        ["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 3,
         "--out-factors", fit_out[0], "--out-trace", fit_out[1]],
        ["predict", "--data", dataset_dir, "--factors", fit_out[0], "--out", new / "am" / "am.txt"],
        ["evaluate", "--data", dataset_dir, "--am", new / "am" / "am.txt",
         "--out-txt", new / "eval" / "eval.txt", "--out-tsv", new / "eval-tsv" / "eval.tsv"],
        ["grid", "--data", dataset_dir, *GRID_ARGS, "--alphas", "0.5",
         "--out-tsv", new / "grid" / "grid.tsv", "--out-txt", new / "grid-txt" / "grid.txt"],
        ["transfer", "--data", pair_dir, "--source", "office_a", "--target", "office_b",
         *GRID_ARGS, "--alphas", "0.5",
         "--out-txt", new / "transfer" / "t.txt", "--out-tsv", new / "transfer-tsv" / "t.tsv"],
        ["elapse", "--data", dataset_dir, "--fractions", "1.0", *FIT_ARGS, "--seed", 6,
         "--out", new / "elapse" / "elapse.tsv"],
        ["localize", "--data", dataset_dir, "--am", new / "am" / "am.txt", "--scene", "scene",
         "--k-max", 5, "--out", new / "curve" / "curve.tsv"],
        ["export-heatmap", "--data", dataset_dir, "--am", new / "am" / "am.txt",
         "--out-dir", new / "maps" / "deep"],
    ]
    for args in commands:
        assert run(args) == 0, args[0]
    written = {p.relative_to(new).as_posix() for p in new.rglob("*") if p.is_file()}
    for path in ("data/dataset.txt", "fit/factors.txt", "fit/trace/trace.tsv", "am/am.txt",
                 "eval/eval.txt", "eval-tsv/eval.tsv", "grid/grid.tsv", "grid-txt/grid.txt",
                 "transfer/t.txt", "transfer/t.txt.variants", "transfer-tsv/t.tsv",
                 "elapse/elapse.tsv", "curve/curve.tsv", "maps/deep/scene_am.tsv"):
        assert path in written


@pytest.mark.parametrize("command", ["fit", "elapse", "generate", "transfer"])
def test_negative_seed_fails_naming_the_seed(dataset_dir, pair_dir, tmp_path, capsys, command):
    # numpy's generators used to refuse it as "expected non-negative integer";
    # transfer's NMF baseline takes the seed itself, so it refuses before its grid
    out = tmp_path / "out"
    args = {
        "fit": ["--data", dataset_dir, *FIT_ARGS, "--out-factors", out],
        "elapse": ["--data", dataset_dir, "--fractions", "0.5", *FIT_ARGS, "--out", out],
        "generate": ["--preset", "mini", "--out", out],
        "transfer": ["--data", pair_dir, "--source", "office_a", "--target", "office_b",
                     "--out-txt", out, "--out-tsv", tmp_path / "out.tsv"],
    }[command]
    assert run([command, *args, "--seed", -1]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_grid_records_a_negative_seed_on_its_row(dataset_dir, tmp_path, capsys):
    tsv, txt = tmp_path / "grid.tsv", tmp_path / "grid.txt"
    args = [*GRID_ARGS, "--alphas", "0.3,0.5"]
    args[args.index("--seed") + 1] = -1
    assert run(["grid", "--data", dataset_dir, *args, "--out-tsv", tsv, "--out-txt", txt]) == 0
    assert "warning: 1 of 2 runs failed" in capsys.readouterr().err
    first, second = tsv.read_text().splitlines()[1:]
    assert first.endswith("\tseed must be >= 0, got -1") and second.split("\t")[-1] == ""


@pytest.mark.parametrize("flag", ["--lam", "--mu", "--rel-tol", "--tau"])
def test_fit_rejects_nan_parameters(dataset_dir, tmp_path, capsys, flag):
    factors = tmp_path / "f.txt"
    args = list(FIT_ARGS)
    if flag in args:
        args[args.index(flag) + 1] = "nan"
    else:
        args += [flag, "nan"]
    code = run(["fit", "--data", dataset_dir, *args, "--seed", 1, "--out-factors", factors])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not factors.exists()


@pytest.fixture(scope="module")
def am_path(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("am")
    run(["fit", "--data", dataset_dir, *FIT_ARGS, "--seed", 3, "--out-factors", out / "f.txt"])
    run(["predict", "--data", dataset_dir, "--factors", out / "f.txt", "--out", out / "am.txt"])
    return out / "am.txt"


def test_predict_refuses_factors_without_every_activity(dataset_dir, am_path, tmp_path, capsys):
    # the action map used to be written with fewer values per row than its
    # header declares, and evaluate then refused it
    from actionmaps import fileio
    from actionmaps.solver import FactorPair

    factors = fileio.read_factors(am_path.parent / "f.txt")
    n_acts = factors.V.shape[0]
    short = tmp_path / "short.txt"
    fileio.write_factors(FactorPair(U=factors.U, V=factors.V[:-1]), short)
    am = tmp_path / "am.txt"
    assert run(["predict", "--data", dataset_dir, "--factors", short, "--out", am]) == 1
    assert capsys.readouterr().err == (
        f"error: factors cover {n_acts - 1} activities, dataset has {n_acts}\n")
    assert not am.exists()


def _drop_last(row):
    return row.rsplit(maxsplit=1)[0]


@pytest.mark.parametrize("index, edit, message", [
    # index counts lines from 0, or back from the end when negative
    pytest.param(4, lambda row: "-0.25 " + row.split(maxsplit=1)[1],
                 "U values must be >= 0, got -0.25", id="negative-U"),
    pytest.param(-3, lambda row: _drop_last(row) + " -1e-3",
                 "V values must be >= 0, got -0.001", id="negative-V"),
    pytest.param(4, _drop_last, "U rows need 4 values, found 3", id="short-U"),
    pytest.param(-2, lambda row: row + " 0.5", "V rows need 4 values, found 5", id="long-V"),
    pytest.param(1, lambda row: _drop_last(row) + " 0", "shape counts must be >= 1, found ",
                 id="zero-rank"),
    pytest.param(2, lambda row: row + " 5", "expected section 'U'", id="U-header"),
])
def test_predict_refuses_a_malformed_factor_row_at_its_line(dataset_dir, am_path, tmp_path,
                                                            capsys, index, edit, message):
    # a negative value used to fail with no path, a short row at a later
    # line, a zero count at the `end` line, and a `U` line with a count
    # passed
    lines = (am_path.parent / "f.txt").read_text().splitlines()
    index %= len(lines)
    lines[index] = edit(lines[index])
    bad, am = tmp_path / "bad.txt", tmp_path / "am.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["predict", "--data", dataset_dir, "--factors", bad, "--out", am]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:{index + 1}: {message}")
    assert not am.exists()


def test_evaluate_refuses_an_unknown_scene(dataset_dir, am_path, tmp_path, capsys):
    # the known scene used to be scored alone, with exit 0
    txt, tsv = tmp_path / "e.txt", tmp_path / "e.tsv"
    assert run(["evaluate", "--data", dataset_dir, "--am", am_path, "--scenes", "scene,typo",
                "--out-txt", txt, "--out-tsv", tsv]) == 1
    assert capsys.readouterr().err == "error: unknown scene 'typo'\n"
    assert not txt.exists() and not tsv.exists()


def test_evaluate_rejects_zero_thresholds(dataset_dir, am_path, tmp_path, capsys):
    code = run(["evaluate", "--data", dataset_dir, "--am", am_path, "--thresholds", 0,
                "--out-txt", tmp_path / "e.txt", "--out-tsv", tmp_path / "e.tsv"])
    assert code == 1
    assert "error: need at least one threshold" in capsys.readouterr().err


NEGATIVE_AM = ("-0.25", "action map values must be >= 0, got -0.25")


@pytest.mark.parametrize("command, token, message", [
    pytest.param("evaluate", "nan", "expected a finite number", id="evaluate"),
    pytest.param("export-heatmap", "nan", "expected a finite number", id="export-heatmap"),
    # export-heatmap must refuse a negative map before it writes any table
    pytest.param("evaluate", *NEGATIVE_AM, id="evaluate-negative"),
    pytest.param("export-heatmap", *NEGATIVE_AM, id="export-heatmap-negative"),
])
def test_nan_in_action_map_fails_with_path_and_line(dataset_dir, am_path, tmp_path, capsys,
                                                    command, token, message):
    lines = am_path.read_text().splitlines()
    lines[3] = lines[3].rsplit(maxsplit=1)[0] + " " + token
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    outs = {"evaluate": ["--out-txt", tmp_path / "e.txt", "--out-tsv", tmp_path / "e.tsv"],
            "export-heatmap": ["--out-dir", tmp_path / "maps"]}[command]
    assert run([command, "--data", dataset_dir, "--am", bad, *outs]) == 1
    assert f"bad.txt:4: {message}" in capsys.readouterr().err
    assert not any(tmp_path.glob("e.*")) and not (tmp_path / "maps").exists()


def _sweep_command(command, dataset_dir, pair_dir, out):
    if command == "grid":
        return ["grid", "--data", dataset_dir, *GRID_ARGS, "--alphas", "0.5",
                "--out-tsv", out / "g.tsv", "--out-txt", out / "g.txt"]
    return ["transfer", "--data", pair_dir, "--source", "office_a", "--target", "office_b",
            *GRID_ARGS, "--alphas", "0.5", "--out-txt", out / "t.txt", "--out-tsv", out / "t.tsv"]


@pytest.mark.parametrize("command", ["grid", "transfer"])
def test_sweeps_reject_lam(dataset_dir, pair_dir, tmp_path, capsys, command):
    # the sweeps take lambda from --lambdas; a single --lam used to be accepted
    # and ignored
    args = _sweep_command(command, dataset_dir, pair_dir, tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([*args, "--lam", 7])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lam" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 7}))
    assert run([*args, "--config", cfg]) == 1
    assert "unknown config key 'lam'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.t*"))


def test_variant_choices_are_the_kernel_variants(dataset_dir, tmp_path, capsys):
    from actionmaps.sideinfo import VARIANTS

    with pytest.raises(SystemExit) as exc:
        run(["fit", "--data", dataset_dir, "--variant", "SPO", "--seed", 1,
             "--out-factors", tmp_path / "f.txt"])
    assert exc.value.code == 2
    assert f"choose from {', '.join(repr(v) for v in VARIANTS)}" in capsys.readouterr().err


def _sweep_with(command, flag, dataset_dir, pair_dir, out):
    if command == "elapse":
        return ["elapse", "--data", dataset_dir, *FIT_ARGS, "--seed", 6,
                "--out", out / "elapse.tsv", flag, ""]
    return [*_sweep_command(command, dataset_dir, pair_dir, out), flag, ""]


@pytest.mark.parametrize(
    "command, flag",
    [
        *[(c, f) for c in ("grid", "transfer")
          for f in ("--alphas", "--lambdas", "--gammas", "--variants")],
        ("elapse", "--fractions"),
    ],
)
def test_sweeps_reject_empty_lists(dataset_dir, pair_dir, tmp_path, capsys, monkeypatch,
                                   command, flag):
    # an empty list used to run zero fits, write a header-only table and exit 0
    _fail_on_load(monkeypatch)
    out = tmp_path / "out"
    assert run(_sweep_with(command, flag, dataset_dir, pair_dir, out)) == 1
    assert f"error: {flag} needs at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, spec, message",
    [
        (["--scenes", 0], None, "n_scenes must be in 1..26, got 0"),
        (["--scenes", 27], None, "n_scenes must be in 1..26, got 27"),
        ([], {"rooms_x": 2.5}, "rooms_x must be an integer, got 2.5"),
        ([], {"room_width": [6, 4]}, "room_width range (6, 4) has lo > hi"),
    ],
    ids=["zero-scenes", "27-scenes", "float-rooms", "empty-range"],
)
def test_generate_rejects_bad_counts_and_specs(tmp_path, capsys, extra, spec, message):
    # each of these used to end in a traceback or in numpy's bare "low >= high"
    args = ["generate", "--seed", 1, "--out", tmp_path / "ds", *extra]
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        args += ["--spec-json", tmp_path / "spec.json"]
    assert run(args) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        (7, "spec.json: spec must be a JSON object"),
        ({"room_width": 5}, "room_width must be a (lo, hi) integer pair, got 5"),
        ({"feature_noise": "x"}, "feature_noise must be a number, got 'x'"),
        ({"feature_smoothing": None}, "feature_smoothing must be a number, got None"),
        ({"detection_miss_rate": "x"}, "detection_miss_rate must be a number, got 'x'"),
        ({"target_action_ratio": [1]}, "target_action_ratio must be a number, got [1]"),
        ({"localization_jitter": True}, "localization_jitter must be a number, got True"),
        ({"room_type_weights": "abc"}, "room_type_weights must be 3 finite weights"),
    ],
    ids=["number", "int-pair", "str-float", "null-float", "str-rate", "list-ratio", "bool-float",
         "str-weights"],
)
def test_generate_rejects_malformed_spec_json(tmp_path, capsys, spec, message):
    # each of these used to end in a TypeError traceback, and the weights in
    # numpy's "could not convert string to float", which names no field
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    args = ["generate", "--spec-json", tmp_path / "spec.json", "--seed", 1, "--out", tmp_path / "ds"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("fit", "--gamma", "error: kernel bandwidths must be positive and finite"),
        ("fit", "--sigma-s", "error: kernel bandwidths must be positive and finite"),
        ("fit", "--tau", "error: sparsification threshold must be finite and >= 0, got inf"),
        ("evaluate", "--range-cells", "error: range must be positive and finite, got inf"),
    ],
    ids=["fit-gamma", "fit-sigma_s", "fit-tau", "evaluate-range_cells"],
)
def test_infinite_settings_fail_their_checks(dataset_dir, am_path, tmp_path, capsys, recwarn,
                                             command, flag, message):
    # each fails its own check, before exp() or the view geometry sees it
    outs = {"fit": ["--seed", 1, "--out-factors", tmp_path / "f.txt"],
            "evaluate": ["--am", am_path, "--out-txt", tmp_path / "e.txt",
                         "--out-tsv", tmp_path / "e.tsv"]}[command]
    args = [*FIT_ARGS, flag, "inf"] if command == "fit" else [flag, "inf"]
    assert run([command, "--data", dataset_dir, *args, *outs]) == 1
    assert message in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.iterdir())


def test_fit_grid_and_transfer_leave_numpy_random_unloaded(tmp_path):
    # numpy.random pulls in secrets and OpenSSL's _hashlib. Neither the CLI's
    # import nor a fit loads it: each fit draws its seeded start in the
    # solver, so only generate and elapse's subset draw load numpy.random
    assert run(["generate", "--preset", "mini", "--scenes", 2, "--seed", 5,
                "--out", tmp_path]) == 0
    data, fit = str(tmp_path / "dataset.txt"), [str(a) for a in FIT_ARGS]
    sweep = [str(a) for a in GRID_ARGS]
    commands = [
        ["fit", "--data", data, *fit, "--seed", "4294967297",
         "--out-factors", str(tmp_path / "f.txt")],
        ["grid", "--data", data, *sweep, "--out-tsv", str(tmp_path / "g.tsv"),
         "--out-txt", str(tmp_path / "g.txt")],
        ["transfer", "--data", data, "--source", "scene_a", "--target", "scene_b", *sweep,
         "--out-txt", str(tmp_path / "t.txt"), "--out-tsv", str(tmp_path / "t.tsv")],
    ]
    code = ("import sys; from actionmaps.cli import main; "
            f"assert all(main(args) == 0 for args in {commands!r}); "
            "print(*[m in sys.modules for m in ('numpy.random', '_hashlib')])")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True)
    assert proc.stdout.split()[-2:] == ["False", "False"]
    assert (tmp_path / "f.txt").exists() and (tmp_path / "t.tsv").exists()


def test_cli_import_leaves_the_generator_unloaded():
    # only `generate` needs actionmaps.synthetic; the dataset record that
    # every other command loads lives in fileio. Every other module loads, so
    # a module that no command reaches fails here.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, actionmaps.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'actionmaps'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "actionmaps.synthetic" not in loaded
    package = {"actionmaps"} | {
        f"actionmaps.{p.stem}" for p in (src / "actionmaps").glob("*.py") if p.stem != "__init__"
    }
    assert loaded == package - {"actionmaps.synthetic"}
