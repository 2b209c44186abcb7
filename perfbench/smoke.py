"""Smoke test of the benchmark harness on the mini preset.

Usage, from the root of a source checkout:
    python3 perfbench/smoke.py

Checks that a mini run emits, with passing checks, every end-to-end metric
named in BENCHMARK.json (--trace 0) and every per-layer metric (--trace 1),
each with its unit. Also checks that a grid with an out-of-range alpha (1.5)
is reported as failed rows and a failed check, although the CLI exits 0.
Exits 1 when any of these does not hold.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    records = [line[len("record: "):] for line in lines if line.startswith("record: ")]
    if not records:
        raise SystemExit(f"{workload}: no record line; stderr:\n{proc.stderr}")
    return proc.returncode, json.loads(records[0]), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, record, result = run("mini", trace)
        if code != 0 or not result["correct"]:
            failures.append(f"mini --trace {trace}: exit {code}, problems {record['problems']}")
        for metric in spec[key]:
            got = result["metrics"].get(metric["name"])
            if got is None:
                failures.append(f"mini --trace {trace}: metric {metric['name']} missing")
            elif got["unit"] != metric["unit"]:
                failures.append(f"mini --trace {trace}: {metric['name']} unit {got['unit']}, "
                                f"BENCHMARK.json says {metric['unit']}")

    code, record, result = run("mini-bad-alpha", 0)
    if record["exit_codes"] != [0]:
        failures.append(f"mini-bad-alpha: CLI exit codes {record['exit_codes']}, expected [0]")
    if not record["failed_share"] > 0 or not result["failed"] > 0:
        failures.append("mini-bad-alpha: rows with alpha 1.5 were not counted as failed")
    if code == 0 or result["correct"]:
        failures.append("mini-bad-alpha: failed rows did not fail the check")

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
