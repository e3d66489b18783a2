#!/usr/bin/env python3
"""Multi-seed planted-structure experiment.

For each seed: build a pool with three complementary archetype groups,
score every candidate team with CK/BD/KW/SQ, fuse with soft voting, and
report (a) the Pearson correlation of each metric with ensemble accuracy
and (b) the accuracy of each metric's top-ranked team against the best
single model.

Example:
    python scripts/planted_synergy_experiment.py --seeds 20 --out results/
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from sqdiv.analytics import pearson, sweep
from sqdiv.pool import correctness, model_accuracy
from sqdiv.selection import rank_teams
from sqdiv.synth import default_spec, generate, planted_best_team

METRICS = ("CK", "BD", "KW", "SQ")


def run_seed(seed, args):
    spec = default_spec(
        n_models=args.models, n_samples=args.samples, n_classes=args.classes,
        n_groups=args.groups, acc_low=args.acc_low, acc_high=args.acc_high,
        rho=args.rho, complement_strength=args.complement_strength, seed=seed,
    )
    pool = generate(spec)
    cm = correctness(pool)
    result = sweep(pool, cm, METRICS)
    accuracy = dict(zip(result.team_keys, result.accuracy.tolist()))
    correlations = result.correlations(pearson)

    row = {"seed": seed}
    for metric in METRICS:
        row[f"r_{metric.lower()}"] = correlations[metric]
        top = rank_teams(result.scores[metric], 1)[0]
        row[f"top1_{metric.lower()}"] = top.team.team_key
        row[f"top1_{metric.lower()}_acc"] = accuracy[top.team.team_key]
    row["best_single_acc"] = max(model_accuracy(cm, i) for i in range(pool.n_models))
    row["planted_team"] = planted_best_team(spec).team_key
    row["planted_acc"] = accuracy[row["planted_team"]]
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--models", type=int, default=10)
    parser.add_argument("--samples", type=int, default=5000)
    parser.add_argument("--classes", type=int, default=15)
    parser.add_argument("--groups", type=int, default=3)
    parser.add_argument("--rho", type=float, default=0.8)
    parser.add_argument("--complement-strength", type=float, default=0.7)
    parser.add_argument("--acc-low", type=float, default=0.85)
    parser.add_argument("--acc-high", type=float, default=0.95)
    parser.add_argument("--out", default=None, help="directory for CSV/JSON artifacts")
    args = parser.parse_args()

    start = time.monotonic()
    rows = []
    for seed in range(args.seeds):
        row = run_seed(seed, args)
        rows.append(row)
        print(
            f"seed {seed:2d}  "
            + "  ".join(f"r_{m}={row[f'r_{m.lower()}']:+.3f}" for m in METRICS)
            + f"  top1_sq={row['top1_sq']}({row['top1_sq_acc']:.4f})"
            + f"  best_single={row['best_single_acc']:.4f}"
        )

    sq_wins = sum(
        1 for r in rows
        if all(r["r_sq"] > r[f"r_{m.lower()}"] for m in ("CK", "BD", "KW"))
    )
    beats_single = sum(1 for r in rows if r["top1_sq_acc"] >= r["best_single_acc"])
    beats_ck = sum(1 for r in rows if r["top1_sq_acc"] >= r["top1_ck_acc"])
    summary = {
        "seeds": args.seeds,
        "sq_correlation_wins": sq_wins,
        "sq_top1_beats_best_single": beats_single,
        "sq_top1_beats_ck_top1": beats_ck,
        "mean_r": {m: sum(r[f"r_{m.lower()}"] for r in rows) / len(rows) for m in METRICS},
        "elapsed_seconds": round(time.monotonic() - start, 1),
    }
    print()
    print(f"SQ correlation strongest in {sq_wins}/{args.seeds} seeds")
    print(f"SQ top-1 >= best single model in {beats_single}/{args.seeds} seeds")
    print(f"SQ top-1 >= CK top-1 in {beats_ck}/{args.seeds} seeds")
    for metric in METRICS:
        print(f"mean Pearson r for {metric}: {summary['mean_r'][metric]:+.3f}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "per_seed.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {out / 'per_seed.csv'} and {out / 'summary.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
