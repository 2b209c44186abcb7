#!/usr/bin/env python3
"""Benchmark of the actionmaps CLI pipelines.

One workload run (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload grid-capped --seed 1 --seconds 30 --trace 0
Every benchmark workload in turn, with a summary table:
    python3 perfbench/run.py --all --seed 1 --seconds 30

The package is imported from the checkout's src/ directory, never from an
installed copy; without src/ the runner exits 2 and prints no result.

Each run generates its datasets from --seed (set-up, not measured), then:
- --trace 0 times fresh CLI processes for --seconds and reports the
  end-to-end metrics: wall_s, setup_s, peak_rss_mb, best_w_max_f1 and
  mean_w_max_f1;
- --trace 1 alternates plain and traced CLI processes (trace_child.py) and
  reports the per-layer metrics derived from the traced spans.
Both modes check every pipeline's outputs, print a `record:` line with the
environment, digests and failure counts, and exit 1 when a check fails.
See perfbench/README.md for the workloads and the meaning of each metric.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 5
# Room sizes pinned to one value, so that every seed yields the same number
# of cells m and timings compare across seeds; layouts, objects, features,
# poses and demonstrations still vary with the seed.
PINNED_ROOM = (9, 9)

GRID_LAYERS = (
    "fileio.load", "fileio.write", "synthetic.location_features", "sideinfo.basis",
    "sideinfo.gram", "solver.bundle", "solver.fit", "solver.step", "solver.objective",
    "evaluation.score", "evaluation.triangles", "evaluation.f1_sweep",
)
TRANSFER_LAYERS = GRID_LAYERS + ("baselines.det", "baselines.nmf")
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "best_w_max_f1": "F1", "mean_w_max_f1": "F1",
}
PER_LAYER = {
    "solver.step.s": "s", "solver.objective.s": "s", "solver.fit.self_s": "s",
    "solver.fit.calls": "count", "solver.iterations": "count", "solver.cap_share": "share",
    "solver.kernel_products": "count", "solver.kernel_bytes": "bytes-computed",
    "sideinfo.basis.s": "s", "synthetic.location_features.s": "s", "solver.bundle.s": "s",
    "fileio.load.s": "s", "sideinfo.basis.bytes": "bytes-computed",
    "sideinfo.basis.peak_mb": "MiB-tracemalloc", "sideinfo.gram.calls": "count",
    "sideinfo.gram.s": "s", "sideinfo.gram.peak_mb": "MiB-tracemalloc",
    "sideinfo.gram.density": "share", "evaluation.score.calls": "count",
    "evaluation.score.s": "s", "evaluation.f1_sweep.s": "s",
    "evaluation.triangles.calls": "count", "evaluation.triangles.distinct": "count",
    "evaluation.triangles.reuse": "share", "baselines.nmf.s": "s",
    "baselines.nmf.iterations": "count", "baselines.det.s": "s", "fileio.write.s": "s",
    **{f"{layer}.errors": "count" for layer in
       ("fileio", "synthetic", "sideinfo", "solver", "baselines", "evaluation")},
    "tracing.overhead_s": "s",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    command: str  # CLI pipeline: grid or transfer
    preset: str
    scenes: int  # scenes per dataset; transfer targets the last one
    datasets: int  # datasets generated from the seed for one run
    variants: str
    alphas: str
    lambdas: str
    gammas: str
    max_iters: int
    rel_tol: str
    reaches: tuple = GRID_LAYERS
    pinned: bool = True

    @property
    def rows(self) -> int:
        """Runs (TSV rows) one pipeline invocation attempts."""
        n = 1
        for flag in (self.variants, self.alphas, self.lambdas, self.gammas):
            n *= len([tok for tok in flag.split(",") if tok])
        return n


# Why each workload exists, and its measured layer split, is in BENCHMARK.json
# and README.md.
WORKLOADS = {
    "grid-capped": Workload(
        command="grid", preset="office_a", scenes=1, datasets=8,
        variants="SOP", alphas="0.5,0.9", lambdas="0.001,0.01", gammas="100",
        max_iters=200, rel_tol="1e-6",
    ),
    "grid-sweep": Workload(
        command="grid", preset="office_a", scenes=1, datasets=6,
        variants="S,SO,SP,SOP", alphas="0.1,0.5,0.9", lambdas="0.001,0.01",
        gammas="100", max_iters=2000, rel_tol="1e-2",
    ),
    "transfer-x2": Workload(
        command="transfer", preset="office_a", scenes=2, datasets=5,
        variants="SO,SP,SOP", alphas="0.5,0.9", lambdas="0.01", gammas="100",
        max_iters=2000, rel_tol="1e-2", reaches=TRANSFER_LAYERS,
    ),
}
# Harness self-tests (perfbench/smoke.py); not benchmark workloads.
SMOKE_WORKLOADS = {
    "mini": Workload(
        command="grid", preset="mini", scenes=1, datasets=1,
        variants="SOP", alphas="0.5", lambdas="0.01", gammas="100",
        max_iters=50, rel_tol="1e-4", pinned=False,
    ),
    # alpha 1.5 is out of range: its rows fail while the CLI exits 0
    "mini-bad-alpha": Workload(
        command="grid", preset="mini", scenes=1, datasets=1,
        variants="SOP", alphas="0.5,1.5", lambdas="0.01", gammas="100",
        max_iters=50, rel_tol="1e-4", pinned=False,
    ),
}


def purpose(name, self_s, root_s):
    """Whether the traced time split matches why the workload was chosen."""
    def share(*spans):
        return sum(self_s.get(s, 0.0) for s in spans) / root_s

    layers = {}
    for span, seconds in self_s.items():
        layer = "orchestration" if span == "cli" else span.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    if name == "grid-capped":
        step_obj = share("solver.step", "solver.objective")
        others = [v / root_s for k, v in layers.items() if k != "solver"]
        return step_obj > max(others), f"solver step+objective self share {step_obj:.3f}"
    if name == "grid-sweep":
        both = share("sideinfo.gram") + share("evaluation.score", "evaluation.triangles",
                                               "evaluation.f1_sweep")
        return both >= 1 / 3, f"gram + scoring share {both:.3f} (goal >= 1/3)"
    if name == "transfer-x2":
        side = layers.get("sideinfo", 0.0)
        return side >= max(layers.values()), f"sideinfo self share {side / root_s:.3f}"
    return True, "no stated purpose"


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env():
    """Environment of every child: the checkout's package, BLAS threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    return env, nproc


def run_child(cmd, log_path, env):
    """Run cmd to completion; returns (exit code, wall seconds, peak RSS MiB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def prepare_datasets(w, seed, wdir):
    """Generate and write the run's datasets (excluded from every metric)."""
    from actionmaps import fileio
    from actionmaps.synthetic import PRESETS, generate_dataset

    spec = PRESETS[w.preset]
    if w.pinned:
        spec = dataclasses.replace(spec, room_width=PINNED_ROOM, room_height=PINNED_ROOM)
    prefix = w.preset if w.scenes == 1 else w.preset.split("_")[0]
    out = []
    for k in range(w.datasets):
        data_seed = 10_000 * seed + k
        ds = generate_dataset(spec, data_seed, n_scenes=w.scenes, scene_prefix=prefix)
        ids = [s.scene_id for s in ds.scenes]
        out.append({
            "seed": data_seed,
            "manifest": fileio.write_dataset(ds, str(wdir / f"data{k}")),
            "m": sum(s.n_cells for s in ds.scenes),
            "poses": sum(len(s.poses) for s in ds.scenes),
            "demonstrations": sum(len(s.demonstrations) for s in ds.scenes),
            "source": ids[:-1] if w.command == "transfer" else ids,
            "target": ids[-1:] if w.command == "transfer" else ids,
        })
    return out


def cli_args(w, ds, out_dir):
    args = [
        w.command, "--data", ds["manifest"], "--variants", w.variants,
        "--alphas", w.alphas, "--lambdas", w.lambdas, "--gammas", w.gammas,
        "--sigma-s", "2", "--tau", "1e-4", "--rank", "6", "--mu", "0",
        "--max-iters", str(w.max_iters), "--rel-tol", w.rel_tol,
        "--fov-deg", "60", "--range-cells", "6", "--thresholds", "100", "--seed", "1",
        "--out-tsv", str(out_dir / "runs.tsv"), "--out-txt", str(out_dir / "summary.txt"),
    ]
    if w.command == "transfer":
        args += ["--source", ",".join(ds["source"]), "--target", ",".join(ds["target"])]
    return args


def run_pipeline(w, k, ds, out_dir, env, traced):
    """One CLI invocation in a fresh process, with its outputs checked."""
    out_dir.mkdir(parents=True)
    args = cli_args(w, ds, out_dir)
    trace_path = out_dir / "trace.json"
    if traced:
        cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_path), "--", *args]
    else:
        cmd = [sys.executable, "-m", "actionmaps.cli", *args]
    code, wall, rss = run_child(cmd, out_dir / "log.txt", env)
    inv = {"dataset": k, "exit_code": code, "wall_s": wall, "peak_rss_mb": rss,
           "traced": traced, "failed": w.rows, "problems": [], "f1": []}
    tag = f"dataset {k} ({'traced' if traced else 'plain'}, {out_dir.name})"
    if code != 0:
        inv["problems"].append(f"{tag}: CLI exited {code}")
        return inv
    tsv = out_dir / "runs.tsv"
    lines = tsv.read_text(encoding="utf-8").splitlines() if tsv.exists() else []
    header, rows = (lines[0].split("\t"), lines[1:]) if lines else ([], [])
    if len(rows) != w.rows or "error" not in header:
        inv["problems"].append(f"{tag}: {len(rows)} TSV rows, expected {w.rows}")
        return inv
    col_err, col_f1 = header.index("error"), header.index("w_max_f1")
    failed = 0
    for row in rows:
        cells = row.split("\t")
        error = cells[col_err] if len(cells) > col_err else "missing error column"
        if error:
            failed += 1
            continue
        f1 = float(cells[col_f1])
        if not 0.0 <= f1 <= 1.0:
            inv["problems"].append(f"{tag}: W. Max F1 {f1} outside [0, 1]")
        inv["f1"].append(f1)
    inv["failed"] = failed
    if failed:
        inv["problems"].append(f"{tag}: {failed} of {len(rows)} rows have an error")
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("summary.txt*")) + [tsv]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    inv["digest"] = digest.hexdigest()[:16]
    if traced:
        inv["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
        spans = inv["trace"]["span_calls"]
        for name in w.reaches:
            if not spans.get(name):
                inv["problems"].append(f"{tag}: boundary {name} recorded no spans")
        if inv["trace"]["kernel_fits"] and not inv["trace"]["metrics"]["solver.kernel_products"]:
            inv["problems"].append(f"{tag}: kernel fits ran but no K·U product was counted")
    return inv


def measure_setup(ds, env, log_path):
    observed = ",".join(ds["source"])
    cmd = [sys.executable, str(HERE / "setup_child.py"), ds["manifest"], observed]
    code, _, _ = run_child(cmd, log_path, env)
    text = log_path.read_text(encoding="utf-8").strip().splitlines()
    if code != 0 or not text:
        return None
    return json.loads(text[-1])


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


def environment(nproc, setup):
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "actionmaps").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    env = {"git_sha": git_sha, "src_sha256": src_digest.hexdigest()[:16], "nproc": nproc}
    if setup:
        env.update({k: v for k, v in setup.items() if k != "setup_s"})
    return env


def run_workload(name, w, seed, seconds, trace):
    env, nproc = child_env()
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    datasets = prepare_datasets(w, seed, wdir)
    n = len(datasets)
    problems = []

    setups = []
    for i in range(SETUP_REPEATS if not trace else 1):
        setup = measure_setup(datasets[i % n], env, wdir / f"setup{i}.log")
        if setup is None:
            problems.append(f"set-up {i} failed, see {wdir / f'setup{i}.log'}")
        else:
            setups.append(setup)

    invocations = []
    t0 = time.perf_counter()
    i = 0
    # Untraced, every dataset runs once and the first runs again, so that the
    # F1 metrics average all datasets and the digest check has a repeat; traced,
    # each iteration is a plain and a traced run of the same dataset.
    while i < (1 if trace else n + 1) or time.perf_counter() - t0 < seconds:
        k = i % n
        invocations.append(run_pipeline(w, k, datasets[k], wdir / f"run{i}", env, False))
        if trace:
            invocations.append(run_pipeline(w, k, datasets[k], wdir / f"run{i}-traced", env, True))
        i += 1
    for inv in invocations:
        problems.extend(inv["problems"])

    digests = {}
    for inv in invocations:
        if "digest" in inv:
            digests.setdefault(inv["dataset"], set()).add(inv["digest"])
    for k, seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"dataset {k}: outputs differ between runs: {sorted(seen)}")

    plain = [inv for inv in invocations if not inv["traced"]]
    first_f1 = {}
    for inv in plain:
        if inv["f1"]:
            first_f1.setdefault(inv["dataset"], inv["f1"])
    best = [max(f1) for f1 in first_f1.values()] or [0.0]
    mean = [statistics.fmean(f1) for f1 in first_f1.values()] or [0.0]
    attempted = w.rows * len(invocations)
    failed = sum(inv["failed"] for inv in invocations)
    walls = [inv["wall_s"] for inv in plain]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(nproc, setups[0] if setups else None),
        "datasets": [{k: ds[k] for k in ("seed", "m", "poses", "demonstrations")}
                     for ds in datasets],
        "pipeline": w.command,
        "wall_s": {"median": statistics.median(walls), "samples": len(walls),
                   "values": walls},
        "setup_s": {"median": statistics.median(s["setup_s"] for s in setups)
                    if setups else None, "samples": len(setups)},
        "exit_codes": sorted({inv["exit_code"] for inv in invocations}),
        "digests": {str(k): sorted(v) for k, v in sorted(digests.items())},
        "best_w_max_f1": statistics.fmean(best),
        "mean_w_max_f1": statistics.fmean(mean),
        "failed_share": failed / attempted,
        "problems": problems,
    }
    if trace:
        metrics = trace_metrics(name, invocations, record)
    else:
        metrics = {
            "wall_s": record["wall_s"]["median"],
            "setup_s": record["setup_s"]["median"] or 0.0,
            "peak_rss_mb": statistics.median(inv["peak_rss_mb"] for inv in plain),
            "best_w_max_f1": record["best_w_max_f1"],
            "mean_w_max_f1": record["mean_w_max_f1"],
        }
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (wdir / f"record-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
    return record, result


def trace_metrics(name, invocations, record):
    traced = [inv for inv in invocations if inv["traced"] and "trace" in inv]
    plain = [inv["wall_s"] for inv in invocations if not inv["traced"]]
    if not traced:
        return {k: 0.0 for k in PER_LAYER}
    metrics = {k: statistics.median(inv["trace"]["metrics"][k] for inv in traced)
               for k in PER_LAYER if k != "tracing.overhead_s"}
    metrics["tracing.overhead_s"] = (
        statistics.median(inv["wall_s"] for inv in traced) - statistics.median(plain))
    spans = {s for inv in traced for s in inv["trace"]["self_s"]}
    self_s = {s: statistics.median(inv["trace"]["self_s"].get(s, 0.0) for inv in traced)
              for s in spans}
    root = statistics.median(inv["trace"]["wall_s"] for inv in traced)
    ok, detail = purpose(name, self_s, root)
    record["traced_wall_s"] = root
    record["self_share"] = {s: round(v / root, 4) for s, v in
                            sorted(self_s.items(), key=lambda kv: -kv[1])}
    record["purpose"] = {"met": ok, "detail": detail}
    record["labels"] = {
        "computed from array sizes": ["solver.kernel_bytes", "sideinfo.basis.bytes"],
        "tracemalloc peaks of traced allocations, not RSS":
            ["sideinfo.basis.peak_mb", "sideinfo.gram.peak_mb"],
    }
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def import_package():
    """Import actionmaps from the checkout's src/, or exit 2 without a result."""
    if not (SRC / "actionmaps" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/actionmaps; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import actionmaps.cli  # noqa: F401  (also compiles the package's bytecode once)

    if Path(actionmaps.cli.__file__).resolve().parent != SRC / "actionmaps":
        print(f"error: actionmaps imported from {actionmaps.cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def print_table(rows):
    for workload, metric, value, unit in rows:
        print(f"{workload:<14}{metric:<32}{value:>14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted({**WORKLOADS, **SMOKE_WORKLOADS}))
    parser.add_argument("--all", action="store_true", help="run every benchmark workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if bool(args.all) == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    # BLAS threads for this process too, before numpy is imported
    os.environ.update({k: v for k, v in child_env()[0].items() if k.endswith("_THREADS")})
    import_package()

    names = list(WORKLOADS) if args.all else [args.workload]
    table, correct = [], True
    for name in names:
        w = WORKLOADS.get(name) or SMOKE_WORKLOADS[name]
        record, result = run_workload(name, w, args.seed, args.seconds, args.trace)
        correct &= result["correct"]
        for problem in record["problems"]:
            print(f"check failed: {name}: {problem}", file=sys.stderr)
        print("record: " + json.dumps(record, sort_keys=True))
        for metric, m in result["metrics"].items():
            table.append((name, metric, m["value"], m["unit"]))
        table.append((name, "failed_share", record["failed_share"], "share"))
        if not args.all:
            print_table(table)
            print(json.dumps(result))
    if args.all:
        print_table(table)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
