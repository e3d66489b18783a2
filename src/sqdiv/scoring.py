"""Metric registry and the team scorer.

score_teams is the only scorer; score_team is score_teams run on one team,
and classical_scores is it run on one team's rows on an explicit subset.
normalize_metrics is the one rule for a list of metric names. score_teams
takes a TeamPlan (teams.enumerate_teams) or a sequence of teams, made a
plan once, and scores the plan's size batches of member arrays. A batch's
classical metrics come from each team's pair counts on its negative set,
or on all samples (qmetrics.classical_batch): the pool's correctness Gram
matrix less the samples every member gets right, or, when the negative set
is capped to a random subset, the Gram matrix of the team's correctness
rows on it.

The synergy metric SQ lets each team member take a turn as the focal model.
The focal's failure samples form its negative set, on which two terms are
taken:

* sq_epsilon -- mean binary disagreement between each non-focal member and
  the focal model. Because the focal is wrong on every negative sample,
  this is the mean share of the set a non-focal member gets right: the
  team's capacity to cover the focal's mistakes.
* sq_alpha -- mean pairwise multi-class Cohen's kappa (qmetrics.kappa, as
  CK's) over the non-focal members' predicted labels on the set: whether
  the potential correctors actually agree with each other.

The per-focal score is w_epsilon * sq_epsilon + w_alpha * sq_alpha, and the
team score is the mean over every member that has at least one failure;
members with no failures are skipped. Both weights default to 1. The focal
negative sets and per-focal terms depend only on the focal model (never on
the rest of the team), so _FocalTables builds them once per call from
integer counts, and every team's SQBreakdown is gathered from those tables.

Every metric comes back as a ScoreColumn: the scores of all teams as one
float array in team order, which scans such as ranking and the CLI's
writers read, and a read-only mapping from team key to DiversityScore that
builds its objects only when a caller first looks a key up.

Direction is metadata here: Yule's Q is a similarity (lower means more
diverse); every other score is higher-is-diverse. Callers never need to
know.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .pool import CorrectnessMatrix
from .qmetrics import (
    ANY_MEMBER_ERRS,
    CLASSICAL,
    FOCAL_ERRS,
    DiversityScore,
    UndefinedDiversityError,
    classical_batch,
    gram,
    kappa,
    negative_samples,
    row_mean,
)
from .teams import make_team, team_plan

METRICS = (*CLASSICAL, "SQ")
# The note a GD score carries when no member fails on any sample.
NO_FAILURES = "no-failures"
# The note an SQ score carries when every member is a skipped focal.
ALL_FOCALS_SKIPPED = "all-focals-skipped"

HIGHER_IS_DIVERSE = "higher-is-diverse"
LOWER_IS_DIVERSE = "lower-is-diverse"

_DIRECTIONS = {
    "CK": HIGHER_IS_DIVERSE,
    "QS": LOWER_IS_DIVERSE,
    "BD": HIGHER_IS_DIVERSE,
    "GD": HIGHER_IS_DIVERSE,
    "KW": HIGHER_IS_DIVERSE,
    "SQ": HIGHER_IS_DIVERSE,
}


def normalize_metric(metric):
    name = str(metric).strip().upper()
    if name not in METRICS:
        raise ValueError(f"unknown metric: {metric!r} (choose from {', '.join(METRICS)})")
    return name


def normalize_metrics(metrics):
    """A metric list's names, normalized, in order: the one list rule.
    ValueError for an unknown name, a repeated one or an empty list."""
    names = [normalize_metric(m) for m in metrics]
    if not names:
        raise ValueError("no metrics requested")
    if len(set(names)) != len(names):
        raise ValueError("duplicate metrics requested")
    return names


def metric_direction(metric):
    return _DIRECTIONS[normalize_metric(metric)]


@dataclass(frozen=True)
class ScoreConfig:
    """One bundle of scoring knobs shared by every metric.

    w_epsilon and w_alpha weight the two SQ components and must be finite
    and non-negative. negative_cap, when set, caps every negative sample
    set at a uniform subset of that size drawn from seed, a non-negative
    integer. use_full_set evaluates the classical metrics on all samples
    instead of the team's negative samples. alpha_on_labels switches SQ's
    agreement component between predicted labels (default) and correctness
    outcomes.
    """

    w_epsilon: float = 1.0
    w_alpha: float = 1.0
    negative_cap: int | None = None
    seed: int = 0
    use_full_set: bool = False
    alpha_on_labels: bool = True

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0 for w in (self.w_epsilon, self.w_alpha)):
            raise ValueError("weights must be finite and non-negative")
        if self.negative_cap is not None and self.negative_cap < 1:
            raise ValueError("negative_cap must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


class ScoreColumn(Mapping):
    """One metric's scores over a list of teams, in the list's order.

    A read-only mapping from team key to DiversityScore, with one entry per
    team: team keys are unique. array holds the scores as a read-only
    float64 array, team_keys the team keys and team_sizes the member
    counts, all in team order; scans over every team read these, and so do
    len(), iteration and `in`. The teams marked in the boolean array flagged
    carry note. The first key lookup builds the DiversityScore of every
    team in the column at once, with the objects details() returns (the
    SQBreakdowns, for SQ) as their .detail.
    """

    def __init__(self, metric, team_keys, team_sizes, array, note=None, flagged=None,
                 details=None):
        array.setflags(write=False)
        self.metric = metric
        self.team_keys = team_keys
        self.team_sizes = team_sizes
        self.array = array
        self._note = note
        self._flagged = flagged
        self._details = details
        self._scores = None

    def _by_key(self):
        if self._scores is None:
            n = len(self.team_keys)
            flagged = [False] * n if self._flagged is None else self._flagged.tolist()
            details = [None] * n if self._details is None else self._details()
            self._scores = {
                key: DiversityScore(self.metric, value, detail=detail,
                                    note=self._note if flag else None)
                for key, value, flag, detail in zip(
                    self.team_keys, self.array.tolist(), flagged, details)
            }
            self._details = None
        return self._scores

    def __getitem__(self, key):
        return self._by_key()[key]

    def __contains__(self, key):
        return key in self.team_keys

    def __iter__(self):
        return iter(self.team_keys)

    def __len__(self):
        return len(self.team_keys)


# Set bits per byte value: counts the samples of a packed row.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _undefined(metrics, team_key):
    return UndefinedDiversityError(
        metrics[0],
        f"undefined diversity: {'/'.join(metrics)} on team "
        f"{team_key} (empty evaluation subset)",
    )


def _classical(cm, plan, metrics, cfg):
    """Classical scores of every team of a TeamPlan on its negative set, or
    on all samples with use_full_set: ({metric: array of scores in team
    order}, GD's no-failures mask or None), as classical_batch."""
    packed = np.packbits(cm.bits, axis=1)
    batches = list(plan.batches(lambda k: k * packed.shape[1] + 64 * k * k))
    removed = np.zeros(len(plan), dtype=np.int64)
    if not cfg.use_full_set:
        # A team's negative set drops exactly the samples all members get right.
        for positions, members in batches:
            all_correct = np.bitwise_and.reduce(packed[members], axis=1)
            removed[positions] = _POPCOUNT[all_correct].sum(axis=1)
    capped = cfg.negative_cap is not None and not cfg.use_full_set
    n = cm.n_samples - removed
    empty = np.flatnonzero(n == 0)
    if empty.size:
        raise _undefined(metrics, plan.team_keys[empty[0]])
    g = None if capped else gram(cm.bits)
    values = {metric: np.empty(len(plan)) for metric in metrics}
    no_failures = np.zeros(len(plan), dtype=bool) if "GD" in metrics else None
    for positions, members in batches:
        if capped:
            grams = []
            for position, ids in zip(positions, members):
                neg = negative_samples(cm, ids, ANY_MEMBER_ERRS, cfg.seed, cfg.negative_cap)
                grams.append(gram(cm.bits[ids][:, list(neg.sample_indices)]))
                n[position] = len(neg)
            counts = np.stack(grams)
        else:
            counts = g[members[:, :, None], members[:, None, :]] - removed[positions, None, None]
        batch, flags = classical_batch(counts, n[positions], metrics)
        for metric, column in batch.items():
            values[metric][positions] = column
        if flags is not None:
            no_failures[positions] = flags
    return values, no_failures


def score_team(pool, cm, team, metric, cfg=ScoreConfig()):
    """Score one team with one metric: score_teams on a single team.

    team is an EnsembleTeam or a sequence of member ids. Raises
    UndefinedDiversityError when the classical metrics have no negative
    samples to work with.
    """
    team = make_team(team, cm.n_models)
    metric = normalize_metric(metric)
    return score_teams(pool, cm, [team], [metric], cfg)[metric][team.team_key]


@dataclass(frozen=True)
class FocalResult:
    focal_id: int
    negative_count: int
    sq_epsilon: float
    sq_alpha: float
    combined: float


@dataclass(frozen=True)
class SQBreakdown:
    """Per-focal components plus the aggregate team score.

    aggregate is the mean combined score over evaluated focals; when every
    focal was skipped (a team of perfect models) it is 0 and all_skipped is
    set.
    """

    per_focal: tuple[FocalResult, ...]
    aggregate: float
    skipped_focals: frozenset[int]
    all_skipped: bool


class _FocalTables:
    """Per-focal tables for scoring the synergy metric over many teams.

    For every model f that appears in the teams, taken as focal, on f's
    negative set of n samples: counts[f] = n; acc[f, a], the share of the
    set that each other model a gets right (sq_epsilon of the pair); and
    kappa[f, a, b], the kappa of every other pair (a, b) on the set (sq_alpha
    of the triple). qmetrics.kappa takes all of f's pairs at once from
    integer counts: the pairs' agreement counts, and their chance products
    labels @ labels.T of the others' per-class label counts, an int64
    product that is exact, so no BLAS kernel or thread count moves a score.
    """

    def __init__(self, pool, cm, plan, cfg):
        m = pool.n_models
        models = tuple(sorted({i for _, members in plan.groups for i in members.ravel().tolist()}))
        if cfg.alpha_on_labels:
            data, n_classes = pool.predicted_labels(), pool.n_classes
        else:
            data, n_classes = cm.bits.astype(np.int64), 2
        self.counts = np.zeros(m, dtype=np.int64)
        self.acc = np.zeros((m, m))
        self.kappa = np.zeros((m, m, m))
        for f in models:
            neg = negative_samples(
                cm, models, mode=FOCAL_ERRS, seed=cfg.seed,
                cap=cfg.negative_cap, focal_id=f,
            )
            idx = np.array(neg.sample_indices, dtype=np.int64)
            n = self.counts[f] = idx.size
            if not n:
                continue
            others = [a for a in models if a != f]
            self.acc[f, others] = cm.bits[others][:, idx].sum(axis=1) / n
            rows = data[others][:, idx]
            agree = np.count_nonzero(rows[:, None] == rows[None], axis=2)
            labels = np.array([np.bincount(row, minlength=n_classes) for row in rows])
            self.kappa[f][np.ix_(others, others)] = kappa(agree, labels @ labels.T, n)

    def _terms(self, plan, cfg):
        """Per batch of equal-size teams of a TeamPlan: positions, members,
        the per-focal epsilon, alpha and combined terms (teams x k) and the
        team scores.

        The focal role rotates through every member; members with no
        negative samples are skipped, and the team score is the mean
        combined score of the rest (0 when every focal is skipped). Each
        mean is taken over the same values in the same order as for a
        single team, so batching never changes a score.
        """
        for positions, members in plan.batches(lambda k: 64 * k * k):
            t, k = members.shape
            eps = np.empty((t, k))
            alpha = np.zeros((t, k))
            ia, ib = np.triu_indices(k - 1, k=1)
            for j in range(k):
                focal = members[:, j:j + 1]
                others = np.delete(members, j, axis=1)
                eps[:, j] = row_mean(self.acc[focal, others])
                if k > 2:
                    alpha[:, j] = row_mean(self.kappa[focal, others[:, ia], others[:, ib]])
            try:
                with np.errstate(over="raise", invalid="raise"):
                    combined = cfg.w_epsilon * eps + cfg.w_alpha * alpha
                    evaluated = self.counts[members] > 0
                    n_evaluated = evaluated.sum(axis=1)
                    aggregate = np.zeros(t)
                    # A set, not np.unique, which imports numpy.ma on numpy 2.
                    for e in set(n_evaluated.tolist()) - {0}:
                        rows = np.flatnonzero(n_evaluated == e)
                        kept = combined[rows][evaluated[rows]].reshape(rows.size, e)
                        aggregate[rows] = row_mean(kept)
            except FloatingPointError:
                raise ValueError(
                    f"SQ weights w_epsilon={cfg.w_epsilon!r} and w_alpha={cfg.w_alpha!r} "
                    "overflow the SQ score"
                ) from None
            yield positions, members, eps, alpha, combined, aggregate

    def scores(self, plan, cfg):
        """SQ of every team in team order, and the mask of teams whose
        every focal is skipped."""
        aggregate = np.zeros(len(plan))
        all_skipped = np.zeros(len(plan), dtype=bool)
        for positions, members, _, _, _, team_scores in self._terms(plan, cfg):
            aggregate[positions] = team_scores
            all_skipped[positions] = ~(self.counts[members] > 0).any(axis=1)
        return aggregate, all_skipped

    def breakdowns(self, plan, cfg):
        """SQBreakdown of every team, in team order."""
        out = [None] * len(plan)
        for positions, members, eps, alpha, combined, aggregate in self._terms(plan, cfg):
            columns = zip(
                positions, members.tolist(), self.counts[members].tolist(),
                eps.tolist(), alpha.tolist(), combined.tolist(), aggregate.tolist(),
            )
            for pos, ids, counts, e_row, a_row, c_row, agg in columns:
                per_focal = tuple(
                    FocalResult(focal_id=f, negative_count=n, sq_epsilon=e,
                                sq_alpha=a, combined=c)
                    for f, n, e, a, c in zip(ids, counts, e_row, a_row, c_row) if n
                )
                out[pos] = SQBreakdown(
                    per_focal=per_focal,
                    aggregate=agg,
                    skipped_focals=frozenset(f for f, n in zip(ids, counts) if not n),
                    all_skipped=not per_focal,
                )
        return out


def score_teams(pool, cm, teams, metrics, cfg=ScoreConfig()):
    """Score many teams with many metrics in one pass.

    teams is a TeamPlan or a sequence of EnsembleTeams, made a TeamPlan
    once. Returns {metric: ScoreColumn}: per metric, the scores of the teams
    in team order as an array, readable as a mapping {team_key:
    DiversityScore}. A GD score of a team on which nothing fails carries the
    "no-failures" note, and an SQ score of a team whose every focal is
    skipped the "all-focals-skipped" note; an SQ score's .detail is the
    team's SQBreakdown. Classical-metric errors on a degenerate team abort
    the sweep naming the first such team in input order. Raises ValueError,
    before any scoring, for a metric list that normalize_metrics rejects,
    a team key that appears twice and a team that teams.team_plan rejects;
    and, naming the SQ weights, when an SQ score overflows the float range.
    """
    plan = team_plan(teams, cm.n_models)
    metrics = normalize_metrics(metrics)
    keys, sizes = plan.team_keys, plan.team_sizes
    if len(set(keys)) != len(keys):
        repeated = next(key for key, n in Counter(keys).items() if n > 1)
        raise ValueError(f"team key {repeated!r} repeated: score each team once")
    out = {}
    classical = [m for m in metrics if m != "SQ"]
    if classical:
        values, no_failures = _classical(cm, plan, classical, cfg)
        for metric in classical:
            gd = metric == "GD"
            out[metric] = ScoreColumn(
                metric, keys, sizes, values[metric],
                note=NO_FAILURES if gd else None, flagged=no_failures if gd else None,
            )
    if "SQ" in metrics:
        tables = _FocalTables(pool, cm, plan, cfg)
        aggregate, all_skipped = tables.scores(plan, cfg)
        out["SQ"] = ScoreColumn(
            "SQ", keys, sizes, aggregate, note=ALL_FOCALS_SKIPPED, flagged=all_skipped,
            details=lambda: tables.breakdowns(plan, cfg),
        )
    return {metric: out[metric] for metric in metrics}


def classical_scores(sub, metrics):
    """Score one team's correctness rows on an evaluation subset (members x
    samples) with each requested classical metric: score_teams on the team
    of every row, on all samples. Returns {metric: DiversityScore} in the
    order of metrics; SQ is refused."""
    metrics = normalize_metrics(metrics)
    if "SQ" in metrics:
        raise ValueError(f"not a classical metric: 'SQ' (choose from {', '.join(CLASSICAL)})")
    cm = CorrectnessMatrix(sub)
    team = make_team(range(cm.n_models), cm.n_models)
    columns = score_teams(None, cm, [team], metrics, ScoreConfig(use_full_set=True))
    return {metric: column[team.team_key] for metric, column in columns.items()}
