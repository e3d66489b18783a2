"""Command-line pipeline: simulate | evaluate | select | inspect.

Machine output goes to files under --out; stdout carries a terse summary;
diagnostics go to stderr. Every subcommand is deterministic given its flags
(all randomness sits behind --seed), so two identical invocations produce
byte-identical artifacts. The artifact formats are defined here and nowhere
else.

Exit codes: 0 success, 1 runtime or data failure, 2 usage error. The library
validators decide which flag values are usage errors, and --out is created
only after every check has passed. Every refusal is one stderr line,
"usage error: ..." or "error: ...", argparse's own included; -h prints help.

A --config JSON file supplies flag values; keys use underscores or dashes.
Each value is typed as --flag=value right after the subcommand name, so
argparse checks it as a typed flag, and argv's own flags, coming later,
win; true types a switch and false leaves it off, and null keeps the
default. A list, an object, a true/false for a non-switch flag, a key that
names no flag of any subcommand, null or not, a key that repeats once
dashes become underscores and a "config" key are usage errors; a key that
names only another subcommand's flag is ignored, so one config file can
serve every subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analytics import case_study, pearson, spearman, sweep
from .pool import PoolFormatError, _read_text, correctness, load_pool, write_pool
from .scoring import ScoreConfig, normalize_metric, normalize_metrics
from .selection import select_and_evaluate
from .synth import SynthSpec, contiguous_groups, generate, planted_best_team
from .teams import _whole, count_teams, make_team, parse_team_key

_EXIT_FAILURE = 1
_EXIT_USAGE = 2

SCATTER_COLUMNS = ("team", "size", "score", "accuracy")
SELECTION_COLUMNS = (
    "rank", "team", "metric", "score", "ensemble_acc", "best_single_acc", "improvement",
)

# Most candidate teams evaluate and select will enumerate. Every team's
# member ids, key, size, accuracy and one float per metric stay in memory
# until the artifacts are written, so the team count, not the pool size,
# bounds a run's memory. 2**16 admits every team of a 16-model pool
# (65,519). At that budget, on a 2-vCPU host, `evaluate` on a synthetic pool
# with N=1000 and C=15 takes 2.1 s with soft voting and 2.4 s with majority
# voting, at a peak RSS of 74 MB (86 MB and 7.8 s with N=5000); `select
# --metric sq` on a 14-model pool (16,369 teams) with N=5000 takes 0.8 s at
# 55 MB.
MAX_TEAMS = 1 << 16


class UsageError(Exception):
    """Semantically invalid flags; maps to exit code 2."""


@contextlib.contextmanager
def _usage(prefix=""):
    """Turn a library validator's rejection of a flag value into a usage error."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{prefix}{exc}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals, its subparsers' too, are usage errors."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    """Return the sqdiv parser and its subparsers by command name."""
    parser = _Parser(
        prog="sqdiv",
        description="Select high-accuracy classifier ensembles by diversity scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, pool=True):
        p = sub.add_parser(name, help=summary,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if pool:
            p.add_argument("--pool", help="path to a pool manifest.json")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="JSON file of flag values")
        return p

    p = command("simulate", "generate a synthetic prediction pool", pool=False)
    p.add_argument("--models", type=int, default=10, help="pool size M")
    p.add_argument("--samples", type=int, default=5000, help="sample count N")
    p.add_argument("--classes", type=int, default=15, help="class count C")
    p.add_argument("--groups", type=int, default=3, help="number of archetype groups")
    p.add_argument("--rho", type=float, default=0.8, help="within-group error correlation")
    p.add_argument("--complement-strength", type=float, default=0.7,
                   help="cross-group rescue strength")
    p.add_argument("--peak-mass", type=float, default=0.8,
                   help="maximum probability on the emitted label")
    p.add_argument("--base-accuracy", default="0.85:0.95",
                   help="'lo:hi' range or comma list of per-model accuracies")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p_eval = command("evaluate", "scatter data and diversity-accuracy correlations")
    p_eval.add_argument("--metrics", default="ck,qs,bd,gd,kw,sq",
                        help="comma list from ck,qs,bd,gd,kw,sq")
    p_eval.add_argument("--spearman", action="store_true",
                        help="report Spearman instead of Pearson")
    p_sel = command("select", "rank teams by one metric and evaluate the top K")
    p_sel.add_argument("--metric", default="sq", help="metric to rank by")
    p_sel.add_argument("--topk", type=int, default=10, help="rows to keep")
    for p in (p_eval, p_sel):
        p.add_argument("--seed", type=int, default=0, help="seed of --neg-cap sampling")
        p.add_argument("--neg-cap", type=int, default=None,
                       help="cap negative sample sets at this size")
        p.add_argument("--w-epsilon", type=float, default=1.0,
                       help="weight of the focal-disagreement term")
        p.add_argument("--w-alpha", type=float, default=1.0,
                       help="weight of the non-focal agreement term")
        p.add_argument("--alpha-on", choices=("labels", "correctness"), default="labels",
                       help="agreement term input")
        p.add_argument("--full-set", action="store_true",
                       help="evaluate classical metrics on all samples, not negatives")
        p.add_argument("--min-size", type=int, default=2, help="smallest team size")
        p.add_argument("--max-size", type=int, default=None,
                       help="largest team size; None means M")

    p_ins = command("inspect", "per-sample case study for one team")
    p_ins.add_argument("--team", help="team key, e.g. 139 or 1-3-11")
    p_ins.add_argument("--sample", help="sample id to inspect")
    for p in (p_eval, p_sel, p_ins):
        p.add_argument("--consensus", choices=["soft", "majority"], default="soft",
                       help="consensus method")

    return parser, sub.choices


def _folded_keys(pairs):
    """A JSON object's entries as a dict, dashes in keys folded to
    underscores; a key that repeats once folded is a usage error."""
    entries, spelled = {}, {}
    for key, value in pairs:
        folded = key.replace("-", "_")
        if folded in entries:
            raise UsageError(f"config key repeats: {spelled[folded]!r} and {key!r}")
        entries[folded], spelled[folded] = value, key
    return entries


def _read_config(path):
    """The config file's entries, keys with underscores and nulls kept.
    The file is read as a pool file is, but a fault in it is a usage error."""
    try:
        text, _ = _read_text(path, "config")
    except PoolFormatError as exc:
        raise UsageError(str(exc)) from None
    try:
        config = json.loads(text, object_pairs_hook=_folded_keys)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    return config


def _parse(argv):
    """Parse argv, then again with the --config entries typed as flags
    right after the subcommand name."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        config = _read_config(args.config)
        if "config" in config:
            raise UsageError("config key names another config file: config")
        defaults = {name: vars(p.parse_args([])) for name, p in commands.items()}
        unknown = sorted(set(config).difference(*defaults.values()))
        if unknown:
            raise UsageError(f"config key names no flag: {', '.join(unknown)}")
        # null keeps the default.
        own = {k: v for k, v in config.items()
               if k in defaults[args.command] and v is not None}
        # true/false sets a switch flag and nothing else; no flag takes a list
        # or an object.
        mistyped = sorted(k for k, v in own.items() if isinstance(v, (list, dict))
                          or isinstance(v, bool) != isinstance(defaults[args.command][k], bool))
        if mistyped:
            raise UsageError(f"config value has the wrong type for: {', '.join(mistyped)}")
        typed = [f"--{k.replace('_', '-')}" + ("" if v is True else f"={v}")
                 for k, v in own.items() if v is not False]
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + typed + argv[at:])
    return args


def _require(args, *names):
    for name in names:
        if not getattr(args, name):
            raise UsageError(f"--{name} is required")


def _score_config(args):
    with _usage("bad scoring flag: "):
        return ScoreConfig(
            w_epsilon=args.w_epsilon,
            w_alpha=args.w_alpha,
            negative_cap=args.neg_cap,
            seed=args.seed,
            use_full_set=args.full_set,
            alpha_on_labels=args.alpha_on == "labels",
        )


def _load_checked(args):
    """Load --pool, then check the team-size flags against its model count
    and the team budget. Returns the pool and its candidate team count."""
    pool = load_pool(args.pool)
    with _usage():
        n_teams = count_teams(pool.n_models, args.min_size, args.max_size)
    if n_teams > MAX_TEAMS:
        raise UsageError(
            f"{n_teams} candidate teams on a {pool.n_models}-model pool exceed the "
            f"budget of {MAX_TEAMS}; narrow --min-size/--max-size"
        )
    return pool, n_teams


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, record):
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _base_accuracy(text, n_models):
    """'lo:hi' spreads evenly over the models; a single value applies to all."""
    spread = ":" in text
    try:
        values = tuple(map(float, text.split(":", 1) if spread else text.split(",")))
    except ValueError:
        values = (math.nan,)
    # np.linspace warns where an endpoint, or their distance, is not finite.
    if not all(map(math.isfinite, values + (values[-1] - values[0],))):
        raise ValueError(f"--base-accuracy takes finite numbers: {text!r}")
    if spread:
        return np.linspace(*values, n_models)
    return values * n_models if len(values) == 1 else values


def cmd_simulate(args):
    _require(args, "out")
    with _usage():
        spec = SynthSpec(
            n_models=args.models,
            n_samples=args.samples,
            n_classes=args.classes,
            base_accuracy=_base_accuracy(args.base_accuracy, args.models),
            groups=contiguous_groups(args.models, args.groups),
            rho=args.rho,
            complement_strength=args.complement_strength,
            peak_mass=args.peak_mass,
            seed=args.seed,
        )
    pool = generate(spec)
    manifest = write_pool(pool, args.out)
    print(f"pool fingerprint {pool.fingerprint()}")
    if len(spec.groups) >= 2 and spec.complement_strength > 0:
        print(f"planted team {planted_best_team(spec).team_key}")
    else:
        print("planted team n/a")
    print(f"wrote {manifest}")
    return 0


def cmd_evaluate(args):
    _require(args, "pool", "out")
    with _usage("--metrics: "):
        metrics = normalize_metrics([m for m in args.metrics.split(",") if m.strip()])
    cfg = _score_config(args)
    pool, n_teams = _load_checked(args)
    if n_teams < 2 and pool.n_models > 2:
        # Other sizes would give more teams, so the flags are at fault. A
        # 2-model pool has one team whatever the flags: that is a data failure.
        max_size = pool.n_models if args.max_size is None else args.max_size
        raise UsageError(
            f"--min-size {args.min_size} --max-size {max_size} leave {n_teams} candidate "
            f"team on a {pool.n_models}-model pool; correlations need at least 2"
        )
    cm = correctness(pool)
    result = sweep(pool, cm, metrics, cfg, args.consensus, args.min_size, args.max_size)
    report = result.correlations(spearman if args.spearman else pearson)
    out = _out_dir(args)
    # The rows csv.writer writes for result.rows(metric), with each team's
    # fields but the score formatted once for every metric. Team keys hold
    # only digits and '-', so no field needs quotes.
    heads = [f"{key},{size}," for key, size in zip(result.team_keys,
                                                   result.team_sizes.tolist())]
    tails = [f",{acc!r}\n" for acc in result.accuracy.tolist()]
    for metric in metrics:
        scores = result.scores[metric].array.tolist()
        with open(out / f"scatter_{metric.lower()}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            fh.write(",".join(SCATTER_COLUMNS) + "\n")
            fh.write("".join([f"{h}{s!r}{t}" for h, s, t in zip(heads, scores, tails)]))
    _write_json(out / "correlations.json", report)
    estimator_name = "spearman" if args.spearman else "pearson"
    for metric in metrics:
        value = report[metric]
        shown = "undefined" if value is None else f"{value:.4f}"
        print(f"{metric} {estimator_name}={shown}")
    print(f"wrote {len(metrics)} scatter files and correlations.json to {out}")
    return 0


def cmd_select(args):
    _require(args, "pool", "out")
    with _usage():
        metric = normalize_metric(args.metric)
    with _usage("--topk: "):
        _whole(args.topk, "k", 1)
    cfg = _score_config(args)
    pool, _ = _load_checked(args)
    cm = correctness(pool)
    report = select_and_evaluate(
        pool, cm, metric, cfg, k=args.topk, consensus_method=args.consensus,
        min_size=args.min_size, max_size=args.max_size,
    )
    path = _out_dir(args) / f"selection_{metric.lower()}.csv"
    # Written as evaluate writes its scatter rows: ranks, team keys, metric
    # names and float reprs never need quotes.
    rows = [SELECTION_COLUMNS, *((
        r.rank, r.team_key, r.metric, r.score, r.ensemble_accuracy,
        r.best_single_accuracy, r.improvement) for r in report.rows)]
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows),
                    encoding="utf-8", newline="")
    top = report.rows[0]
    print(
        f"{metric} top1 team={top.team_key} acc={top.ensemble_accuracy:.4f} "
        f"best_single={top.best_single_accuracy:.4f} improvement={top.improvement:+.4f}"
    )
    print(f"wrote {len(report.rows)} rows to {path}")
    return 0


def cmd_inspect(args):
    _require(args, "pool", "team", "sample", "out")
    pool = load_pool(args.pool)
    try:
        team = make_team(parse_team_key(args.team), pool.n_models)
    except ValueError as exc:
        raise UsageError(f"unknown team member: {exc}") from None
    try:
        record = case_study(pool, team, args.sample, args.consensus)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    path = _out_dir(args) / "case_study.json"
    _write_json(path, record)
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
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
