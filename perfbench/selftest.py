"""Self-test of the benchmark harness, and a one-command summary.

    python3 perfbench/selftest.py

Run from the root of a checkout. It runs every workload once untraced and
once traced, one round each, and checks that

  * the last output line has exactly the keys correct, attempted, failed and
    metrics, every operation passed, and the metrics are exactly the
    end-to-end (untraced) or per-layer (traced) metrics named in
    BENCHMARK.json, each with its unit;
  * end-to-end values are positive;
  * with deliberately wrong expected values, every operation is counted as
    failed, the run still completes and `correct` is false;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.

It prints the end-to-end metrics of every workload by name and unit, and
exits 0 when every check holds. It takes about three minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check(ok, what, failures):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc, result = run_bench(["--workload", workload, "--seed", "0",
                                      "--seconds", "1", "--trace", str(trace)])
            check(result is not None, f"{label}: exits 0 and prints a result", failures)
            if result is None:
                print(proc.stderr, file=sys.stderr)
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys", failures)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 3,
                  f"{label}: {result['attempted']} operations, {result['failed']} failed",
                  failures)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted[trace], f"{label}: metric names and units", failures)
            values = [m["value"] for m in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                  f"{label}: finite values", failures)
            if trace == 0:
                check(all(v > 0 for v in values), f"{label}: positive values", failures)
                summary[workload] = result["metrics"]

    OUT.mkdir(exist_ok=True)
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)
    for entry in expected.values():
        entry["value"] += 1
    wrong = OUT / "wrong-expected.json"
    wrong.write_text(json.dumps(expected))
    proc, result = run_bench(["--workload", "worklist_warm", "--seed", "0", "--seconds",
                              "1", "--trace", "0", "--expected", str(wrong)])
    check(result is not None and not result["correct"]
          and result["failed"] == result["attempted"] > 0,
          "wrong expected values: every operation counted as failed", failures)

    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc, result = run_bench(["--workload", "small_batch", "--seed", "0", "--seconds",
                                  "1", "--trace", "0"], cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without the sources: exit {proc.returncode}, no result", failures)

    print()
    for workload, metrics in summary.items():
        print(workload)
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:12.4f} {m['unit']}")
    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
