"""Steadiness and overhead report: run every workload repeatedly, one seed
per run, and print each metric's median, quartiles and sample count.

    python3 perfbench/report.py --seeds 10              # all workloads
    python3 perfbench/report.py --workloads roundtrip-wide --seeds 5 --trace-runs 0

For an end-to-end metric the spread is (Q3 - Q1) / median, set against the
metric's bound in BENCHMARK.json; "steady" means the spread is below a third
of the bound. One traced run per workload (by default) adds the per-layer
medians, bench.trace_overhead_s among them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, spec):
    """Rows of (metric, unit, median, q1, q3, n, spread, bound, steady)."""
    rows = []
    for metric in spec:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = metric.get("bound")
        steady = None if bound is None else spread < bound / 3
        rows.append((metric["name"], metric["unit"], median, q1, q3, len(values),
                     spread, bound, steady))
    return rows


def print_rows(title, rows):
    print(f"\n{title}")
    print(f"  {'metric':30s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'n':>3s} {'spread':>8s} {'bound':>6s} steady")
    for name, unit, median, q1, q3, n, spread, bound, steady in rows:
        shown = "" if steady is None else ("yes" if steady else "NO")
        print(f"  {name:30s} {unit:6s} {median:12.6g} {q1:12.6g} {q3:12.6g} {n:3d} "
              f"{spread:8.2%} {'' if bound is None else f'{bound:.2f}':>6s} {shown}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=1)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        results = [run_once(workload, s, args.seconds, 0) for s in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        rows = summarize(results, spec["end_to_end"])
        print_rows(f"{workload}: {len(results)} runs, seeds {seeds.start}..{seeds.stop - 1}, "
                   f"fail_ratio {failed}/{attempted}", rows)
        traced = [run_once(workload, s, args.seconds, 1) for s in seeds[:args.trace_runs]]
        if traced:
            print_rows(f"{workload}: {len(traced)} traced run(s)",
                       summarize(traced, spec["per_layer"]))
        summary[workload] = {"attempted": attempted, "failed": failed,
                             "end_to_end": results, "traced": traced}
    out = BENCH / "_out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
