"""Command-line pipeline: simulate | evaluate | select | inspect.

Machine output goes to files under --out; stdout carries a terse summary;
diagnostics go to stderr. Every subcommand is deterministic given its flags
(all randomness sits behind --seed), so two identical invocations produce
byte-identical artifacts.

Exit codes: 0 success, 1 runtime or data failure, 2 usage error.

A --config JSON file may supply any flag (keys use underscores or dashes);
explicit command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .analytics import (
    SCATTER_COLUMNS,
    UndefinedCorrelationError,
    case_study,
    pearson,
    spearman,
    sweep,
)
from .pool import PoolFormatError, correctness, load_pool, write_pool
from .qmetrics import UndefinedDiversityError
from .scoring import ScoreConfig, normalize_metric
from .selection import select_and_evaluate
from .synth import SynthSpec, contiguous_groups, generate, planted_best_team
from .teams import make_team, normalize_method, parse_team_key

_EXIT_FAILURE = 1
_EXIT_USAGE = 2


class UsageError(Exception):
    """Semantically invalid flags; maps to exit code 2."""


def _log(message):
    print(message, file=sys.stderr)


def _add_common(parser):
    parser.add_argument("--pool", required=False, help="path to a pool manifest.json")
    parser.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    parser.add_argument("--neg-cap", type=int, default=None,
                        help="cap negative sample sets at this size")
    parser.add_argument("--w-epsilon", type=float, default=None,
                        help="weight of the focal-disagreement term (default 1)")
    parser.add_argument("--w-alpha", type=float, default=None,
                        help="weight of the non-focal agreement term (default 1)")
    parser.add_argument("--alpha-on", choices=["labels", "correctness"], default=None,
                        help="agreement term input (default labels)")
    parser.add_argument("--full-set", action="store_true", default=None,
                        help="evaluate classical metrics on all samples, not negatives")
    parser.add_argument("--min-size", type=int, default=None, help="smallest team size (default 2)")
    parser.add_argument("--max-size", type=int, default=None, help="largest team size (default M)")
    parser.add_argument("--consensus", choices=["soft", "majority"], default=None,
                        help="consensus method (default soft)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--config", default=None, help="JSON file supplying any flag")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sqdiv",
        description="Select high-accuracy classifier ensembles by diversity scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic prediction pool")
    p_sim.add_argument("--models", type=int, default=None, help="pool size M (default 10)")
    p_sim.add_argument("--samples", type=int, default=None, help="sample count N (default 5000)")
    p_sim.add_argument("--classes", type=int, default=None, help="class count C (default 15)")
    p_sim.add_argument("--groups", type=int, default=None,
                       help="number of archetype groups (default 3)")
    p_sim.add_argument("--rho", type=float, default=None,
                       help="within-group error correlation (default 0.8)")
    p_sim.add_argument("--complement-strength", type=float, default=None,
                       help="cross-group rescue strength (default 0.7)")
    p_sim.add_argument("--peak-mass", type=float, default=None,
                       help="maximum probability on the emitted label (default 0.8)")
    p_sim.add_argument("--base-accuracy", default=None,
                       help="'lo:hi' range or comma list of per-model accuracies "
                            "(default 0.85:0.95)")
    _add_common(p_sim)

    p_eval = sub.add_parser("evaluate", help="scatter data and diversity-accuracy correlations")
    p_eval.add_argument("--metrics", default=None,
                        help="comma list from ck,qs,bd,gd,kw,sq (default all)")
    p_eval.add_argument("--spearman", action="store_true", default=None,
                        help="report Spearman instead of Pearson")
    _add_common(p_eval)

    p_sel = sub.add_parser("select", help="rank teams by one metric and evaluate the top K")
    p_sel.add_argument("--metric", default=None, help="metric to rank by (default sq)")
    p_sel.add_argument("--topk", type=int, default=None, help="rows to keep (default 10)")
    _add_common(p_sel)

    p_ins = sub.add_parser("inspect", help="per-sample case study for one team")
    p_ins.add_argument("--team", default=None, help="team key, e.g. 139 or 1-3-11")
    p_ins.add_argument("--sample", default=None, help="sample id to inspect")
    _add_common(p_ins)

    return parser


_DEFAULTS = {
    "seed": 0,
    "neg_cap": None,
    "w_epsilon": 1.0,
    "w_alpha": 1.0,
    "alpha_on": "labels",
    "full_set": False,
    "min_size": 2,
    "max_size": None,
    "consensus": "soft",
    "metrics": "ck,qs,bd,gd,kw,sq",
    "spearman": False,
    "metric": "sq",
    "topk": 10,
    "models": 10,
    "samples": 5000,
    "classes": 15,
    "groups": 3,
    "rho": 0.8,
    "complement_strength": 0.7,
    "peak_mass": 0.8,
    "base_accuracy": "0.85:0.95",
    "pool": None,
    "out": None,
    "team": None,
    "sample": None,
    "config": None,
}


def _merge_config(args):
    """Fill unset flags from --config JSON, then from built-in defaults."""
    values = vars(args)
    config = {}
    if values.get("config"):
        path = Path(values["config"])
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        config = {str(k).replace("-", "_"): v for k, v in raw.items()}
    for key, value in values.items():
        if value is None and key in config:
            values[key] = config[key]
    for key, value in values.items():
        if value is None and key in _DEFAULTS:
            values[key] = _DEFAULTS[key]
    return args


def _score_config(args):
    try:
        return ScoreConfig(
            w_epsilon=float(args.w_epsilon),
            w_alpha=float(args.w_alpha),
            negative_cap=None if args.neg_cap in (None, "") else int(args.neg_cap),
            seed=int(args.seed),
            use_full_set=bool(args.full_set),
            alpha_on_labels=args.alpha_on != "correctness",
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad scoring flag: {exc}") from None


def _metric_list(text):
    try:
        return [normalize_metric(m) for m in str(text).split(",") if m.strip()]
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _consensus(value):
    try:
        return normalize_method(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _out_dir(args):
    if not args.out:
        raise UsageError("--out is required")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args):
    if not args.pool:
        raise UsageError("--pool is required")
    return load_pool(args.pool)


def _parse_base_accuracy(text, n_models):
    text = str(text)
    if ":" in text:
        lo, hi = (float(v) for v in text.split(":", 1))
        return tuple(float(a) for a in np.linspace(lo, hi, n_models))
    values = tuple(float(v) for v in text.split(","))
    if len(values) == 1:
        return values * n_models
    if len(values) != n_models:
        raise UsageError(
            f"--base-accuracy lists {len(values)} values for {n_models} models"
        )
    return values


def cmd_simulate(args):
    try:
        models, samples = int(args.models), int(args.samples)
        classes, groups = int(args.classes), int(args.groups)
    except (TypeError, ValueError):
        raise UsageError("--models/--samples/--classes/--groups must be integers") from None
    if models < 2:
        raise UsageError("--models must be at least 2")
    if samples < 1 or classes < 2:
        raise UsageError("--samples must be >= 1 and --classes >= 2")
    if not 1 <= groups <= models:
        raise UsageError("--groups must lie in [1, models]")
    accs = _parse_base_accuracy(args.base_accuracy, models)
    try:
        spec = SynthSpec(
            n_models=models,
            n_samples=samples,
            n_classes=classes,
            base_accuracy=accs,
            groups=contiguous_groups(models, groups),
            rho=float(args.rho),
            complement_strength=float(args.complement_strength),
            peak_mass=float(args.peak_mass),
            seed=int(args.seed),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = _out_dir(args)
    pool = generate(spec)
    manifest = write_pool(pool, out)
    print(f"pool fingerprint {pool.fingerprint()}")
    if len(spec.groups) >= 2 and spec.complement_strength > 0:
        print(f"planted team {planted_best_team(spec).team_key}")
    else:
        print("planted team n/a")
    print(f"wrote {manifest}")
    return 0


def _write_scatter(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCATTER_COLUMNS)
        for key, size, score, accuracy in rows:
            writer.writerow([key, size, repr(score), repr(accuracy)])


def cmd_evaluate(args):
    metrics = _metric_list(args.metrics)
    if not metrics:
        raise UsageError("--metrics lists no metrics")
    method = _consensus(args.consensus)
    cfg = _score_config(args)
    out = _out_dir(args)
    pool = _load(args)
    cm = correctness(pool)
    result = sweep(pool, cm, metrics, cfg, method, int(args.min_size),
                   None if args.max_size is None else int(args.max_size))
    for metric in metrics:
        _write_scatter(out / f"scatter_{metric.lower()}.csv", result.rows(metric))
    report = result.correlations(spearman if args.spearman else pearson)
    (out / "correlations.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    estimator_name = "spearman" if args.spearman else "pearson"
    for metric in metrics:
        value = report[metric]
        shown = "undefined" if value is None else f"{value:.4f}"
        print(f"{metric} {estimator_name}={shown}")
    print(f"wrote {len(metrics)} scatter files and correlations.json to {out}")
    return 0


def cmd_select(args):
    metrics = _metric_list(args.metric)
    if len(metrics) != 1:
        raise UsageError("--metric takes exactly one metric")
    metric = metrics[0]
    try:
        topk = int(args.topk)
    except (TypeError, ValueError):
        raise UsageError("--topk must be an integer") from None
    if topk < 1:
        raise UsageError("--topk must be >= 1")
    method = _consensus(args.consensus)
    cfg = _score_config(args)
    out = _out_dir(args)
    pool = _load(args)
    cm = correctness(pool)
    report = select_and_evaluate(
        pool, cm, metric, cfg, k=topk,
        consensus_method=method,
        min_size=int(args.min_size),
        max_size=None if args.max_size is None else int(args.max_size),
    )
    path = out / f"selection_{metric.lower()}.csv"
    report.write_csv(path)
    top = report.rows[0]
    print(
        f"{metric} top1 team={top.team_key} acc={top.ensemble_accuracy:.4f} "
        f"best_single={top.best_single_accuracy:.4f} improvement={top.improvement:+.4f}"
    )
    print(f"wrote {len(report.rows)} rows to {path}")
    return 0


def cmd_inspect(args):
    if not args.team:
        raise UsageError("--team is required")
    if args.sample is None:
        raise UsageError("--sample is required")
    out = _out_dir(args)
    pool = _load(args)
    try:
        team = make_team(parse_team_key(args.team), pool.n_models)
    except ValueError as exc:
        raise UsageError(f"unknown team member: {exc}") from None
    try:
        record = case_study(pool, team, args.sample, _consensus(args.consensus))
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    path = out / "case_study.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    fused = record["consensus"]
    print(
        f"sample {record['sample_id']} truth={record['truth']} "
        f"consensus={fused['predicted']} correct={fused['correct']}"
    )
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "select": cmd_select,
    "inspect": cmd_inspect,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return _EXIT_USAGE
    except (PoolFormatError, UndefinedDiversityError, UndefinedCorrelationError) as exc:
        _log(f"error: {exc}")
        return _EXIT_FAILURE
    except (OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return _EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
