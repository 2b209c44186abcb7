"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import os
import subprocess
import sys
import time

import numpy as np

import actionmaps
from actionmaps import experiments
from actionmaps.cli import main as cli_main
from actionmaps.evaluation import GridSpec, aggregate, f1_sweep
from actionmaps.geometry import Plane, RansacParams, refine_ground_plane_ransac, estimate_metric_scale, plane_distance
from actionmaps.sideinfo import GramBasis, KernelConfig, LocationFeatures
from actionmaps.solver import ActionMatrixBundle, SolverParams, fit, laplacian_smoothness, predict
from actionmaps.synthetic import PRESETS, generate_dataset
from tests.conftest import random_bundle, random_kernel
from tests.kernel_oracles import combined_kernel, kernel_chi2, kernel_spatial, locations, object_score
from tests.test_evaluation import f1_sweep_oracle
from tests.test_solver import pairwise_smoothness_oracle

TREND_KERNEL = KernelConfig(alpha=0.7, sigma_s=2.0, gamma_p=0.5, gamma_o=0.5, variant="SOP")
TREND_SOLVER = SolverParams(rank=6, lam=1e-2, max_iters=300, rel_tol=1e-5, seed=17)


def _report(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {extra}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {extra}"


def test_01_solver_monotonicity():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        bundle = random_bundle(rng, m=200, a=6, density=0.4)
        k_u = random_kernel(rng, 200)
        params = SolverParams(rank=6, lam=1e-2, mu=0.0, max_iters=500, rel_tol=1e-300,
                              seed=int(rng.integers(1 << 30)))
        trace = fit(bundle, k_u, None, params).trace
        rel = np.diff(trace) / np.maximum(trace[:-1], 1e-30)
        worst = max(worst, float(rel.max(initial=-1.0)))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(1, "solver-monotonicity", ok, f"(worst step {worst:.2e}, {elapsed:.1f}s)")


def test_02_exact_recovery():
    rng = np.random.default_rng(102)
    u_true = rng.uniform(0.5, 1.5, (60, 2))
    v_true = rng.uniform(0.5, 1.5, (6, 2))
    r = u_true @ v_true.T
    bundle = ActionMatrixBundle(R=r, W=np.ones_like(r), mask=np.ones(r.shape, bool))
    result = fit(bundle, None, None,
                 SolverParams(rank=2, lam=0.0, mu=0.0, max_iters=5000, rel_tol=1e-12, seed=7))
    rel = float(np.linalg.norm(predict(result.factors) - r) / np.linalg.norm(r))
    _report(2, "exact-recovery", rel < 1e-3, f"(relative error {rel:.2e})")


def test_03_laplacian_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(8, 40))
        k = random_kernel(rng, m)
        u = rng.uniform(0, 2, (m, int(rng.integers(1, 7))))
        a = laplacian_smoothness(u, k, k.sum(axis=1))
        b = pairwise_smoothness_oracle(u, k)
        worst = max(worst, abs(a - b))
    _report(3, "laplacian-identity", worst <= 1e-8, f"(worst gap {worst:.2e})")


def test_04_kernel_suite():
    rng = np.random.default_rng(104)
    ok = True
    # closed-form spot values
    sigma = 2.0
    ok &= abs(kernel_spatial((0.0, 0.0), (sigma * math.sqrt(2), 0.0), sigma) - math.exp(-1)) <= 1e-12
    ok &= abs(kernel_chi2([1.0, 0.0], [0.0, 1.0], 1.0, epsilon=0.0) - math.exp(-2)) <= 1e-12
    ok &= abs(object_score(0.0) - 1.0 / (2.0 * math.sqrt(math.pi))) <= 1e-12
    # symmetry, range, and unit diagonal with both appearance kernels active
    feats = LocationFeatures(
        x=rng.integers(0, 5, (12, 2)).astype(float),
        p=rng.uniform(0, 1, (12, 3)),
        o=rng.uniform(0.1, 1, (12, 2)),
        scene_codes=np.arange(12) % 2,
    )
    basis = GramBasis(feats)
    for variant in ("S", "SO", "SP", "SOP"):
        for alpha in (0.0, 0.3, 0.7, 1.0):
            gram = basis.gram(KernelConfig(alpha=alpha, variant=variant, tau=0.0))
            m = gram.matrix
            ok &= bool(np.array_equal(m, m.T))
            ok &= float(m.min()) >= 0.0 and float(m.max()) <= 1.0 + 1e-12
            ok &= bool(np.allclose(m.diagonal(), 1.0, rtol=0, atol=1e-12))
    for alpha in (0.0, 0.5, 1.0):
        cfg = KernelConfig(alpha=alpha, variant="SOP")
        for f in locations(feats):
            ok &= abs(combined_kernel(f, f, cfg) - 1.0) <= 1e-12
    _report(4, "kernel-suite", bool(ok))


def test_05_transfer_trend():
    t0 = time.time()
    per_variant = {v: [] for v in ("SO", "SP", "SOP")}
    det, nmf = [], []
    for seed in range(10):
        ds = generate_dataset(PRESETS["pair"], seed=seed, n_scenes=2, scene_prefix="office")
        rep = experiments.run_transfer(
            ds, ["office_a"], ["office_b"],
            grid_spec=GridSpec(alphas=(0.7,), lambdas=(1e-2,), gammas=(0.5,)),
            solver=TREND_SOLVER, kernel=KernelConfig(sigma_s=2.0),
            base_seed=100 + seed,
        )
        det.append(rep.baselines["Det."].w_mean_f1)
        nmf.append(rep.baselines["NMF"].w_mean_f1)
        for variant, stats in rep.grid.summaries().items():
            per_variant[variant].append(stats["w_mean_f1"][1])
    elapsed = time.time() - t0
    best = max(float(np.mean(per_variant[v])) for v in per_variant)
    det_m, nmf_m = float(np.mean(det)), float(np.mean(nmf))
    ok = best >= det_m + 0.03 and best >= nmf_m + 0.03 and elapsed < 600.0
    _report(5, "transfer-trend", ok,
            f"(best {best:.3f} vs Det. {det_m:.3f} / NMF {nmf_m:.3f}, {elapsed:.0f}s)")


def test_06_multi_scene_gain():
    diffs = []
    for seed in range(10):
        ds = generate_dataset(PRESETS["pair"], seed=seed, n_scenes=2, scene_prefix="office")
        res = experiments.run_joint_vs_single(ds, TREND_KERNEL, TREND_SOLVER)
        diffs.append(float(np.mean([res[s][0].w_mean_f1 - res[s][1].w_mean_f1 for s in res])))
    wins = sum(d > 0 for d in diffs)
    mean_diff = float(np.mean(diffs))
    ok = mean_diff >= 0.0 and wins >= 7
    _report(6, "multi-scene-gain", ok, f"(mean {mean_diff:+.4f}, positive {wins}/10)")


def test_07_elapse_trend():
    gaps = []
    for seed in range(10):
        ds = generate_dataset(PRESETS["pair"], seed=100 + seed)
        res = experiments.run_elapse(ds, [0.1, 1.0], TREND_KERNEL, TREND_SOLVER, subset_seed=seed)
        assert res[0][0] == 0.1 and res[1][0] == 1.0
        gaps.append(res[1][1].mean_f1 - res[0][1].mean_f1)
    mean_gap = float(np.mean(gaps))
    _report(7, "elapse-trend", mean_gap >= 0.05, f"(mean gain {mean_gap:+.3f})")


def test_08_evaluation_oracle():
    scores = np.array(
        [[0.95, 0.10], [0.60, 0.55], [0.40, 0.90], [0.20, 0.45], [0.05, 0.70]]
    )
    gt = np.array(
        [[True, False], [True, True], [False, True], [False, False], [False, True]]
    )
    got_max, got_mean = f1_sweep(scores, gt, n_thresholds=100)
    want_max, want_mean = f1_sweep_oracle(scores, gt, n_thresholds=100)
    ok = np.array_equal(got_max, want_max) and np.array_equal(got_mean, want_mean)
    weighted, _ = aggregate(np.array([1.0, 0.0]), np.array([3, 1]))
    ok = ok and weighted == 0.75
    _report(8, "evaluation-oracle", bool(ok))


def test_09_geometry():
    height_plane = Plane((0.0, 0.0, 1.0), 1.7)
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        floor = np.column_stack(
            [rng.uniform(0, 10, 420), rng.uniform(0, 10, 420), rng.normal(0, 0.01, 420)]
        )
        ceiling = np.column_stack(
            [rng.uniform(0, 10, 180), rng.uniform(0, 10, 180), 2.5 + rng.normal(0, 0.01, 180)]
        )
        pts = np.vstack([floor, ceiling])
        plane = refine_ground_plane_ransac(
            height_plane, pts, RansacParams(iterations=300, seed=seed), 1.7
        )
        angle = math.degrees(math.acos(min(1.0, abs(float(plane.n @ np.array([0.0, 0.0, 1.0]))))))
        ok &= angle <= 1.0
    rng = np.random.default_rng(105)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        o1, gap, h = rng.uniform(-3, 3), rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.5)
        ground = Plane(tuple(n), o1) if o1 >= 0 else Plane(tuple(-n), -o1)
        height = Plane(tuple(n), o1 + gap) if o1 + gap >= 0 else Plane(tuple(-n), -(o1 + gap))
        scale = estimate_metric_scale(ground, height, h)
        ok &= abs(scale * plane_distance(ground, height) - h) <= 1e-9
    _report(9, "geometry", bool(ok))


def test_10_localization():
    ok_mono = True
    wins = 0
    for seed in range(10):
        ds = generate_dataset(PRESETS["pair"], seed=200 + seed)
        scene = ds.scenes[0]
        counts = scene.label_matrix().sum(axis=0)
        rare = int(np.argmin(np.where(counts > 0, counts, 1 << 30)))
        common = int(np.argmax(counts))
        am, _ = experiments.fit_action_map(ds, TREND_KERNEL, TREND_SOLVER)
        curve = experiments.run_localization(ds, scene.scene_id, am, scene.n_cells)
        for values in curve.per_activity.values():
            ok_mono &= bool(np.all(np.diff(values) <= 1e-12))
        ok_mono &= bool(np.all(np.diff(curve.aggregate) <= 1e-12))
        k_rare = experiments.guesses_to_reach(curve.per_activity[rare], 2.0)
        k_common = experiments.guesses_to_reach(curve.per_activity[common], 2.0)
        wins += k_rare < k_common
    ok = ok_mono and wins >= 8
    _report(10, "localization", ok, f"(monotone {ok_mono}, specialization {wins}/10)")


def _run_twice(args_fn, tmp_path, name):
    """Run a CLI invocation into two sibling dirs and compare all bytes."""
    outs = []
    for tag in ("r1", "r2"):
        root = tmp_path / f"{name}_{tag}"
        root.mkdir()
        assert cli_main([str(a) for a in args_fn(root)]) == 0
        outs.append(root)
    files1 = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert files1 == files2 and files1, f"{name}: file sets differ"
    return all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files1)


def test_11_reproducibility(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--preset", "pair", "--scenes", "2",
                     "--scene-prefix", "office", "--seed", "6",
                     "--out", str(data_dir)]) == 0
    manifest = str(data_dir / "dataset.txt")
    fit_args = ["--rank", "4", "--max-iters", "50", "--rel-tol", "1e-4", "--seed", "9"]
    factors = str(tmp_path / "factors.txt")
    assert cli_main(["fit", "--data", manifest, *fit_args, "--out-factors", factors]) == 0
    am = str(tmp_path / "am.txt")
    assert cli_main(["predict", "--data", manifest, "--factors", factors, "--out", am]) == 0

    small_grid = ["--alphas", "0.5", "--lambdas", "0.01", "--gammas", "0.5",
                  "--rank", "4", "--max-iters", "50", "--rel-tol", "1e-4"]
    cases = {
        "generate": lambda d: ["generate", "--preset", "mini", "--seed", "5", "--out", d],
        "fit": lambda d: ["fit", "--data", manifest, *fit_args,
                          "--out-factors", d / "f.txt", "--out-trace", d / "t.tsv"],
        "predict": lambda d: ["predict", "--data", manifest, "--factors", factors,
                              "--out", d / "am.txt"],
        "evaluate": lambda d: ["evaluate", "--data", manifest, "--am", am,
                               "--out-txt", d / "e.txt", "--out-tsv", d / "e.tsv"],
        "grid": lambda d: ["grid", "--data", manifest, "--variants", "S,SOP", *small_grid,
                           "--seed", "3", "--out-tsv", d / "g.tsv", "--out-txt", d / "g.txt"],
        "transfer": lambda d: ["transfer", "--data", manifest, "--source", "office_a",
                               "--target", "office_b", "--variants", "SP,SOP", *small_grid,
                               "--seed", "4", "--out-txt", d / "t.txt", "--out-tsv", d / "t.tsv"],
        "elapse": lambda d: ["elapse", "--data", manifest, "--fractions", "0.5,1.0",
                             "--rank", "4", "--max-iters", "50", "--rel-tol", "1e-4",
                             "--seed", "8", "--out", d / "el.tsv"],
        "localize": lambda d: ["localize", "--data", manifest, "--am", am,
                               "--scene", "office_a", "--k-max", "25", "--out", d / "c.tsv"],
        "export-heatmap": lambda d: ["export-heatmap", "--data", manifest, "--am", am,
                                     "--out-dir", d / "maps"],
    }
    ok = True
    for name, fn in cases.items():
        same = _run_twice(fn, tmp_path, name)
        ok &= same
        if not same:
            print(f"  reproducibility mismatch in {name}")
    # cross-process spot check: a fresh interpreter produces the same bytes
    # (the child imports the same package source as this process)
    sub_dir = tmp_path / "subproc"
    sub_dir.mkdir()
    src = os.path.dirname(os.path.dirname(actionmaps.__file__))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "actionmaps.cli", "generate", "--preset", "mini",
         "--seed", "5", "--out", str(sub_dir)],
        check=True, capture_output=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    inproc = tmp_path / "generate_r1"
    for f in sorted(p.relative_to(sub_dir) for p in sub_dir.rglob("*") if p.is_file()):
        ok &= (sub_dir / f).read_bytes() == (inproc / f).read_bytes()
    _report(11, "reproducibility", bool(ok))
