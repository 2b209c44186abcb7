"""The package surface the benchmark harness in perfbench/ pins.

The traced child patches boundary functions by name and counts K·U products
through solver._as_kernel; the setup child builds the basis and the bundle
directly. Each runs here on the mini preset, in a fresh interpreter, as the
benchmark runs it. The runner's own data preparation, which reads scene
sizes, poses and demonstrations, runs here in process.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# boundaries every grid reaches; transfer also reaches both baselines
GRID_SPANS = {
    "cli", "fileio.load", "fileio.write", "synthetic.location_features",
    "sideinfo.basis", "sideinfo.gram", "solver.bundle", "solver.fit", "solver.step",
    "solver.objective", "evaluation.score", "evaluation.triangles", "evaluation.f1_sweep",
}
BASELINE_SPANS = {"baselines.det", "baselines.nmf"}
SWEEP = ["--alphas", "0.5", "--lambdas", "0.01", "--gammas", "100", "--rank", "3",
         "--mu", "0", "--max-iters", "5", "--rel-tol", "1e-4", "--seed", "1"]


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=120, check=False)


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    paths = {}
    for scenes in (1, 2):
        proc = _python("-m", "actionmaps.cli", "generate", "--preset", "mini", "--scenes",
                       scenes, "--seed", 1, "--out", out / f"mini{scenes}")
        assert proc.returncode == 0, proc.stderr
        paths[scenes] = proc.stdout.strip()
    return paths


def _trace(tmp_path, cli_args):
    out = tmp_path / "trace.json"
    proc = _python(PERFBENCH / "trace_child.py", out, "--", *cli_args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_traced_grid_reaches_every_boundary(manifests, tmp_path):
    report = _trace(tmp_path, ["grid", "--data", manifests[1], "--variants", "S,SOP", *SWEEP,
                               "--out-tsv", tmp_path / "g.tsv", "--out-txt", tmp_path / "g.txt"])
    assert report["exit_code"] == 0
    assert set(report["span_calls"]) == GRID_SPANS
    metrics = report["metrics"]
    assert metrics["solver.kernel_products"] > 0
    assert metrics["solver.fit.calls"] == 2
    assert metrics["sideinfo.gram.calls"] == 2
    assert all(metrics[f"{layer}.errors"] == 0 for layer in ("sideinfo", "solver", "evaluation"))


def test_traced_grid_keeps_one_fit_span_per_cohort_run(manifests, tmp_path):
    # each Gram group's lambda pair is one solver cohort, fitted in lockstep
    # by its first fit() call; the tracer counts fits per solver.fit span, so
    # every run must still reach solver.fit once
    sweep = list(SWEEP)
    sweep[sweep.index("--lambdas") + 1] = "0.001,0.01"
    report = _trace(tmp_path, ["grid", "--data", manifests[1], "--variants", "S,SOP", *sweep,
                               "--out-tsv", tmp_path / "g.tsv", "--out-txt", tmp_path / "g.txt"])
    assert report["exit_code"] == 0
    assert set(report["span_calls"]) == GRID_SPANS
    assert report["span_calls"]["solver.fit"] == 4
    metrics = report["metrics"]
    assert metrics["solver.fit.calls"] == 4 and report["kernel_fits"] == 4
    assert metrics["sideinfo.gram.calls"] == 2
    assert all(metrics[f"{layer}.errors"] == 0 for layer in ("sideinfo", "solver", "evaluation"))


def test_traced_transfer_reaches_the_baselines(manifests, tmp_path):
    report = _trace(tmp_path, ["transfer", "--data", manifests[2], "--source", "scene_a",
                               "--target", "scene_b", "--variants", "SOP", *SWEEP,
                               "--out-txt", tmp_path / "t.txt", "--out-tsv", tmp_path / "t.tsv"])
    assert report["exit_code"] == 0
    assert set(report["span_calls"]) == GRID_SPANS | BASELINE_SPANS
    metrics = report["metrics"]
    assert metrics["solver.kernel_products"] > 0
    assert metrics["baselines.nmf.iterations"] > 0
    assert report["kernel_fits"] == 1


def test_setup_child_times_the_setup(manifests):
    proc = _python(PERFBENCH / "setup_child.py", manifests[2], "scene_a")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["setup_s"] > 0


def test_prepare_datasets_counts_match_the_written_documents(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    (ds,) = run.prepare_datasets(run.SMOKE_WORKLOADS["mini"], 1, tmp_path)
    assert ds["seed"] == 10_000 and ds["source"] == ds["target"] == ["mini"]
    # recount from the documents: the entry lines between section headers
    manifest = Path(ds["manifest"])
    names = manifest.read_text(encoding="utf-8").splitlines()
    scene_files = names[2 : 2 + int(names[1].split()[1])]
    m = poses = demos = 0
    for name in scene_files:
        lines = (manifest.parent / name).read_text(encoding="utf-8").splitlines()
        head = {line.split()[0]: k for k, line in enumerate(lines) if line[:1].isalpha()}
        width, height = map(int, lines[head["dims"]].split()[1:3])
        m += width * height
        demos += head["poses"] - head["demos"] - 1
        poses += head["features"] - head["poses"] - 1
    assert (ds["m"], ds["poses"], ds["demonstrations"]) == (m, poses, demos)
    assert m > 0 and poses > 0 and demos > 0
