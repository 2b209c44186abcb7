"""Run every CLI pipeline on fixed seeded datasets and list output digests.

Usage: python3 tools/cli_digests.py OUT_DIR [SRC_DIR]

Generates mini x1, mini x2, pair x2, office_a x2 and, from a `--spec-json`
world spec, margin x2 into OUT_DIR and runs
`fit --out-trace`, `predict`, `evaluate`, `grid` over S,SO,SP,SOP, `elapse`,
`localize`, `export-heatmap` and, on the two-scene sets, `transfer`, each
fit capped at 200 iterations. On mini x1 two more fits run, at seeds
2^32 + 1 and 2^64 + 5, whose seeded starts take more than one 32-bit word
of entropy. The margin spec takes generator branches that
no preset takes: objects kept 2 cells from the walls, false-positive
detections and missed ones, and two rows of rooms; its JSON is written to
OUT_DIR and listed too. On office_a x2 two more grids run: one over
gammas 100 and 1000, whose Gram basis serves a gamma above its smallest,
and one at tau 0, whose basis keeps every pair. The CLI runs in a fresh
interpreter per command with SRC_DIR (default: the `src/` next to this
script) on the import path. Prints one sorted `sha256  path` line per
written file, with paths relative to OUT_DIR, so two runs of the same code
print the same listing, and so do two revisions whose outputs are bit for
bit equal.
"""

import hashlib
import json
import os
import subprocess
import sys

MARGIN_SPEC = {
    "rooms_x": 3, "rooms_y": 2, "room_width": [6, 8], "room_height": [5, 7],
    "object_margin": 2, "false_positive_rate": 0.05, "detection_miss_rate": 0.5,
    "localization_jitter": 1.5, "n_demonstrations": 40,
}
DATASETS = [  # (name, preset name or world-spec dict, scenes, seed)
    ("mini1", "mini", 1, 7),
    ("mini2", "mini", 2, 7),
    ("pair2", "pair", 2, 3),
    ("office2", "office_a", 2, 11),
    ("margin2", MARGIN_SPEC, 2, 4),
]
FIT = ["--max-iters", "200", "--rel-tol", "1e-6", "--rank", "6", "--tau", "1e-4"]
SWEEP = ["--alphas", "0,0.5", "--lambdas", "0.001,0.01", "--gammas", "100"]
EXTRA_FIT_SEEDS = {"mini1": [2**32 + 1, 2**64 + 5]}  # dataset name -> extra fit seeds
EXTRA_GRIDS = {  # dataset name -> (output stem, flags that replace the defaults)
    "office2": [("grid-gammas", ["--gammas", "100,1000"]), ("grid-tau0", ["--tau", "0"])],
}


def run_cli(src: str, out: str, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, "-m", "actionmaps.cli", *args],
        cwd=out, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def run_dataset(src: str, out: str, name: str, preset, scenes: int, seed: int) -> None:
    data = f"{name}/dataset.txt"
    world = ["--preset", preset]
    if isinstance(preset, dict):
        world = ["--spec-json", f"{name}-spec.json"]
        with open(os.path.join(out, world[1]), "w", encoding="utf-8") as fh:
            json.dump(preset, fh)
    run_cli(src, out, "generate", *world, "--scenes", str(scenes),
            "--seed", str(seed), "--out", name)
    run_cli(src, out, "fit", "--data", data, *FIT, "--seed", "3",
            "--out-factors", f"{name}/factors.txt", "--out-trace", f"{name}/trace.tsv")
    for fit_seed in EXTRA_FIT_SEEDS.get(name, []):
        run_cli(src, out, "fit", "--data", data, *FIT, "--seed", str(fit_seed),
                "--out-factors", f"{name}/factors-{fit_seed}.txt",
                "--out-trace", f"{name}/trace-{fit_seed}.tsv")
    run_cli(src, out, "predict", "--data", data, "--factors", f"{name}/factors.txt",
            "--out", f"{name}/am.txt")
    run_cli(src, out, "evaluate", "--data", data, "--am", f"{name}/am.txt",
            "--out-txt", f"{name}/eval.txt", "--out-tsv", f"{name}/eval.tsv")
    for stem, extra in [("grid", []), *EXTRA_GRIDS.get(name, [])]:
        # argparse keeps the last value of a repeated flag
        run_cli(src, out, "grid", "--data", data, "--variants", "S,SO,SP,SOP", *SWEEP, *FIT,
                *extra, "--seed", "5", "--out-tsv", f"{name}/{stem}.tsv",
                "--out-txt", f"{name}/{stem}.txt")
    run_cli(src, out, "elapse", "--data", data, "--fractions", "0.3,1.0", *FIT,
            "--seed", "6", "--out", f"{name}/elapse.tsv")
    first = "scene_a" if scenes > 1 else "scene"
    run_cli(src, out, "localize", "--data", data, "--am", f"{name}/am.txt",
            "--scene", first, "--k-max", "20", "--out", f"{name}/curve.tsv")
    run_cli(src, out, "export-heatmap", "--data", data, "--am", f"{name}/am.txt",
            "--out-dir", f"{name}/maps")
    if scenes > 1:
        run_cli(src, out, "transfer", "--data", data, "--source", "scene_a",
                "--target", "scene_b", *SWEEP, *FIT, "--seed", "8",
                "--out-txt", f"{name}/transfer.txt", "--out-tsv", f"{name}/transfer.tsv")


def digests(out: str) -> list[str]:
    lines = []
    for root, _, files in os.walk(out):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.abspath(argv[1] if len(argv) == 2 else os.path.join(here, "..", "src"))
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    for spec in DATASETS:
        run_dataset(src, out, *spec)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
