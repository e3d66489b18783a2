"""Smoke test of the benchmark itself, on M=4, N=200 pools; takes seconds.

    python3 perfbench/smoke.py

Checks that every workload passes its output check in both modes and prints
exactly the metrics BENCHMARK.json names, each with its unit; that an
altered artifact is counted as a failure; and that the benchmark refuses to
run, printing no result, where there is no sqdiv source tree.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr[-500:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def every_metric_printed(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload, trace)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace} passes its output check")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} prints every {key} metric with its unit")


def shift_scores(path, delta):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[2] = repr(float(row[2]) + delta)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def altered_artifact_fails():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run

    w = replace(run.WORKLOADS["evaluate-full"], models=4, samples=200)
    work = BENCH / "_work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = run.Bench(w, 1, work)
        pool = work / "pool"
        bench.cli(run.simulate_args(w, 1, pool), pool)
        manifest = pool / "manifest.json"
        # The first evaluate's scores are shifted before it is recorded: the
        # oracle re-scoring must catch it (Pearson correlation would not).
        args = run.evaluate_args(manifest, work / "e0")
        wall, rss, code, stdout = bench.spawn([sys.executable, "-m", "sqdiv", *args])
        shift_scores(work / "e0" / "scatter_ck.csv", 1e-6)
        bench._finish(run.Execution("evaluate", work / "e0", wall, rss, code, stdout))
        # An untouched repeat then differs from the first run's digests.
        bench.cli(run.evaluate_args(manifest, work / "e1"), work / "e1")
        bench.check_outputs()
        altered, clean = [e for e in bench.executions if e.command == "evaluate"]
        check(any("oracle" in msg for msg in altered.errors),
              "an altered score is counted as a failure by the oracle check")
        check(any("differ" in msg for msg in clean.errors),
              "a repeat whose digests differ from the first run is counted as a failure")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def refuses_without_source():
    bare = BENCH / "_work" / f"bare-{os.getpid()}"
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "evaluate-full", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode != 0 and "{" not in proc.stdout,
              "with no sqdiv source the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    every_metric_printed(spec)
    altered_artifact_fails()
    refuses_without_source()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
