"""Run one actionmaps CLI pipeline with spans around every layer boundary.

Usage: python3 perfbench/trace_child.py OUT_JSON -- <actionmaps CLI arguments>

The package is not modified: after importing it, this script replaces each
public boundary function with a recording wrapper, in its home module and in
every module that imported it by name. Spans (name, start, end, parent) are
kept in memory and written to OUT_JSON when the pipeline ends, together with
the per-layer metrics derived from them. The exit code is the CLI's.
"""

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

from actionmaps import baselines, cli, evaluation, fileio, sideinfo, solver, synthetic

# (span name, module, attribute); "Class.method" patches the class.
BOUNDARIES = [
    ("fileio.load", fileio, "load_dataset"),
    *(("fileio.write", fileio, name) for name in sorted(vars(fileio))
      if name.startswith("write_") and callable(getattr(fileio, name))),
    ("synthetic.location_features", synthetic, "GeneratedDataset.location_features"),
    ("sideinfo.basis", sideinfo, "GramBasis.__init__"),
    ("sideinfo.gram", sideinfo, "GramBasis.gram"),
    ("solver.bundle", solver, "build_bundle"),
    ("solver.fit", solver, "fit"),
    ("solver.step", solver, "multiplicative_step"),
    ("solver.objective", solver, "objective"),
    ("baselines.det", baselines, "detection_action_map"),
    ("baselines.nmf", baselines, "augmented_wnmf"),
    ("evaluation.score", evaluation, "score_action_map"),
    ("evaluation.triangles", evaluation, "cells_in_triangle"),
    ("evaluation.f1_sweep", evaluation, "f1_sweep"),
]
LAYERS = ("fileio", "synthetic", "sideinfo", "solver", "baselines", "evaluation")
# boundaries whose numpy allocations are traced with tracemalloc
TRACEMALLOC = {"sideinfo.basis", "sideinfo.gram"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.errors = Counter()
        self.counts = Counter()
        self.fits = []  # (iterations, max_iters, kernel fit, under the NMF baseline)
        self.gram_density = []
        self.peak_bytes = Counter()
        self.triangles = set()

    def ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            traced = name in TRACEMALLOC
            if traced:
                tracemalloc.start()
            self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name.split(".")[0]] += 1
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
                if traced:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            self.observe(name, idx, args, kwargs, result)
            return result

        wrapper.__wrapped_boundary__ = name
        return wrapper

    def observe(self, name, idx, args, kwargs, result):
        """Counters read from arguments and results, outside the span's time."""
        if name == "solver.fit":
            k_u = args[1] if len(args) > 1 else kwargs.get("K_U")
            params = args[3] if len(args) > 3 else kwargs["params"]
            self.fits.append((
                len(result.trace) - 1,
                params.max_iters,
                k_u is not None and params.lam > 0,
                "baselines.nmf" in self.ancestors(idx),
            ))
        elif name == "sideinfo.gram":
            k = result.matrix
            self.gram_density.append(np.count_nonzero(k) / k.size)
        elif name == "sideinfo.basis":
            basis = args[0]
            self.counts["basis_bytes"] = sum(
                v.nbytes for v in vars(basis).values() if isinstance(v, np.ndarray)
            )
        elif name == "evaluation.triangles":
            tri, shape = args[0], tuple(args[1])
            self.triangles.add((tri.apex, tri.heading, tri.fov_deg, tri.range_cells, shape))

    def install(self):
        """Patch every boundary; raises if one no longer exists."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("actionmaps") and m]
        for name, module, attr in BOUNDARIES:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self.install_kernel_counter()

    def install_kernel_counter(self):
        """Count K·U products: the solver reads K through _as_kernel, so the
        matrix it returns is handed out as a view that counts matmuls."""
        counts = self.counts

        class CountingKernel(np.ndarray):
            def __matmul__(self, other):
                counts["kernel_products"] += 1
                counts["kernel_bytes"] += self.nbytes
                return np.matmul(self.view(np.ndarray), other)

        original = solver._as_kernel

        def as_kernel(k):
            mat, degrees = original(k)
            return (None if mat is None else mat.view(CountingKernel)), degrees

        solver._as_kernel = as_kernel

    def metrics(self):
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[idx]
        total = Counter()
        self_time = Counter()
        calls = Counter()
        for idx, (name, *_rest) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += durations[idx] - child_time[idx]
            if name not in self.ancestors(idx):
                total[name] += durations[idx]
        root = total["cli"]
        kernel_fits = [f for f in self.fits if not f[3]]
        nmf_fits = [f for f in self.fits if f[3]]
        metrics = {
            "solver.step.s": total["solver.step"],
            "solver.objective.s": total["solver.objective"],
            "solver.fit.self_s": self_time["solver.fit"],
            "solver.fit.calls": calls["solver.fit"],
            "solver.iterations": sum(f[0] for f in self.fits),
            "solver.cap_share": (
                sum(f[0] >= f[1] for f in self.fits) / len(self.fits) if self.fits else 0.0
            ),
            "solver.kernel_products": self.counts["kernel_products"],
            "solver.kernel_bytes": self.counts["kernel_bytes"],
            "sideinfo.basis.s": total["sideinfo.basis"],
            "synthetic.location_features.s": total["synthetic.location_features"],
            "solver.bundle.s": total["solver.bundle"],
            "fileio.load.s": total["fileio.load"],
            "sideinfo.basis.bytes": self.counts["basis_bytes"],
            "sideinfo.basis.peak_mb": self.peak_bytes["sideinfo.basis"] / 2**20,
            "sideinfo.gram.calls": calls["sideinfo.gram"],
            "sideinfo.gram.s": total["sideinfo.gram"],
            "sideinfo.gram.peak_mb": self.peak_bytes["sideinfo.gram"] / 2**20,
            "sideinfo.gram.density": (
                float(np.mean(self.gram_density)) if self.gram_density else 0.0
            ),
            "evaluation.score.calls": calls["evaluation.score"],
            "evaluation.score.s": total["evaluation.score"],
            "evaluation.f1_sweep.s": total["evaluation.f1_sweep"],
            "evaluation.triangles.calls": calls["evaluation.triangles"],
            "evaluation.triangles.distinct": len(self.triangles),
            "evaluation.triangles.reuse": (
                len(self.triangles) / calls["evaluation.triangles"]
                if calls["evaluation.triangles"] else 0.0
            ),
            "baselines.nmf.s": total["baselines.nmf"],
            "baselines.nmf.iterations": sum(f[0] for f in nmf_fits),
            "baselines.det.s": total["baselines.det"],
            "fileio.write.s": total["fileio.write"],
            **{f"{layer}.errors": self.errors[layer] for layer in LAYERS},
        }
        layer_self = Counter()
        for name, seconds in self_time.items():
            layer_self["orchestration" if name == "cli" else name.split(".")[0]] += seconds
        return {
            "metrics": metrics,
            "wall_s": root,
            "span_calls": dict(calls),
            "self_s": dict(self_time),
            "layer_share": {k: v / root for k, v in layer_self.items()} if root else {},
            "kernel_fits": len(kernel_fits),
        }


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap("cli", cli.main)
    code = run(cli_args)
    report = tracer.metrics()
    report["exit_code"] = code
    report["spans"] = tracer.spans
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
