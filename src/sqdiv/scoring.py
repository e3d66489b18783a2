"""Metric registry and the team scorer.

score_teams is the only scorer; score_team is score_teams run on one team.
Teams are scored in batches of one size. The classical metrics on each
team's full negative set (or on all samples) follow in closed form from the
pool's correctness Gram matrix and one count per team, the samples on which
every member is correct (qmetrics.classical_batch). Only a capped negative
set, a random subset, needs the team's own slice of the correctness rows.
For the synergy metric the focal negative sets and per-focal pair
statistics depend only on the focal model (never on the rest of the team),
so they are built once per call, over the models that appear in the
requested teams, and every team's breakdown is gathered from those tables.

Direction is metadata here: Yule's Q is a similarity (lower means more
diverse); every other score is higher-is-diverse. Callers never need to
know.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .qmetrics import (
    ANY_MEMBER_ERRS,
    FOCAL_ERRS,
    DiversityScore,
    UndefinedDiversityError,
    _member_ids,
    _row_mean,
    _subset_indices,
    classical_batch,
    classical_scores,
    gram,
    negative_samples,
)
from .sq import FocalResult, SQBreakdown, sq_alpha, sq_epsilon
from .teams import EnsembleTeam, _size_batches, make_team

METRICS = ("CK", "QS", "BD", "GD", "KW", "SQ")

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


def metric_direction(metric):
    return _DIRECTIONS[normalize_metric(metric)]


@dataclass(frozen=True)
class ScoreConfig:
    """One bundle of scoring knobs shared by every metric.

    w_epsilon and w_alpha weight the two SQ components and must be
    non-negative. negative_cap, when set, caps every negative sample set at
    a uniform subset of that size drawn from seed. use_full_set evaluates
    the classical metrics on all samples instead of the team's negative
    samples. alpha_on_labels switches SQ's agreement component between
    predicted labels (default) and correctness outcomes.
    """

    w_epsilon: float = 1.0
    w_alpha: float = 1.0
    negative_cap: int | None = None
    seed: int = 0
    use_full_set: bool = False
    alpha_on_labels: bool = True

    def __post_init__(self):
        if self.w_epsilon < 0 or self.w_alpha < 0:
            raise ValueError("weights must be non-negative")
        if self.negative_cap is not None and self.negative_cap < 1:
            raise ValueError("negative_cap must be a positive integer")


# Set bits per byte value: counts the samples of a packed row.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _undefined(metrics, team):
    return UndefinedDiversityError(
        metrics[0],
        f"undefined diversity: {'/'.join(metrics)} on team "
        f"{team.team_key} (empty evaluation subset)",
    )


def _closed_form_classical(cm, teams, metrics, cfg):
    """Classical scores on every team's full negative set, or on all samples
    with use_full_set, from the Gram matrix: {metric: [score per team]}."""
    packed = np.packbits(cm.bits, axis=1)
    batches = _size_batches(
        [t.member_ids for t in teams], lambda k: k * packed.shape[1] + 64 * k * k
    )
    removed = np.zeros(len(teams), dtype=np.int64)
    if not cfg.use_full_set:
        # A team's negative set drops exactly the samples all members get right.
        for positions, members in batches:
            all_correct = np.bitwise_and.reduce(packed[members], axis=1)
            removed[positions] = _POPCOUNT[all_correct].sum(axis=1)
    n = cm.n_samples - removed
    empty = np.flatnonzero(n == 0)
    if empty.size:
        raise _undefined(metrics, teams[empty[0]])
    g = gram(cm.bits)
    scored = {metric: [None] * len(teams) for metric in metrics}
    for positions, members in batches:
        batch = classical_batch(g, members, n[positions], removed[positions], metrics)
        for metric, scores in batch.items():
            column = scored[metric]
            for pos, score in zip(positions, scores):
                column[pos] = score
    return scored


def _sampled_classical(cm, teams, metrics, cfg):
    """Classical scores on capped negative sets, which are random subsets,
    from each team's slice of the correctness rows."""
    scored = {metric: [] for metric in metrics}
    for team in teams:
        neg = negative_samples(
            cm, team, mode=ANY_MEMBER_ERRS, seed=cfg.seed, cap=cfg.negative_cap
        )
        idx = _subset_indices(neg, cm.n_samples)
        if idx.size == 0:
            raise _undefined(metrics, team)
        sub = cm.bits[list(team.member_ids)][:, idx]
        for metric, score in classical_scores(sub, metrics).items():
            scored[metric].append(score)
    return scored


def score_team(pool, cm, team, metric, cfg=ScoreConfig()):
    """Score one team with one metric: score_teams on a single team.

    team is an EnsembleTeam or a sequence of member ids. Raises
    UndefinedDiversityError when the classical metrics have no negative
    samples to work with.
    """
    if not isinstance(team, EnsembleTeam):
        team = make_team(team, cm.n_models)
    metric = normalize_metric(metric)
    return score_teams(pool, cm, [team], [metric], cfg)[metric][team.team_key]


class _FocalTables:
    """Per-focal tables for scoring the synergy metric over many teams.

    For every model f that appears in the teams, taken as focal: its
    negative sample count, sq_epsilon of each other model a with f, and
    sq_alpha of every other pair (a, b) with f, all on f's negative set.
    """

    def __init__(self, pool, cm, teams, cfg):
        m = pool.n_models
        models = tuple(sorted({i for team in teams for i in _member_ids(team)}))
        self.counts = np.zeros(m, dtype=np.int64)
        self.acc = np.zeros((m, m))
        self.kappa = np.zeros((m, m, m))
        for f in models:
            neg = negative_samples(
                cm, models, mode=FOCAL_ERRS, seed=cfg.seed,
                cap=cfg.negative_cap, focal_id=f,
            )
            self.counts[f] = len(neg)
            if not len(neg):
                continue
            others = [a for a in models if a != f]
            for a in others:
                self.acc[f, a] = sq_epsilon(cm, (f, a), f, neg)
            for a, b in combinations(others, 2):
                k = sq_alpha(pool, (f, a, b), f, neg, on_labels=cfg.alpha_on_labels)
                self.kappa[f, a, b] = k
                self.kappa[f, b, a] = k

    def breakdowns(self, teams, cfg):
        """SQBreakdown of every team, in input order.

        The focal role rotates through every member; members with no
        negative samples are skipped, and the team score is the mean
        combined score of the rest (0 when every focal is skipped). Each
        mean is taken over the same values in the same order as for a
        single team, so batching never changes a score.
        """
        out = [None] * len(teams)
        for positions, members in _size_batches(
            [t.member_ids for t in teams], lambda k: 64 * k * k
        ):
            t, k = members.shape
            eps = np.empty((t, k))
            alpha = np.zeros((t, k))
            ia, ib = np.triu_indices(k - 1, k=1)
            for j in range(k):
                focal = members[:, j:j + 1]
                others = np.delete(members, j, axis=1)
                eps[:, j] = _row_mean(self.acc[focal, others])
                if k > 2:
                    alpha[:, j] = _row_mean(self.kappa[focal, others[:, ia], others[:, ib]])
            combined = cfg.w_epsilon * eps + cfg.w_alpha * alpha
            evaluated = self.counts[members] > 0
            n_evaluated = evaluated.sum(axis=1)
            aggregate = np.zeros(t)
            for e in np.unique(n_evaluated[n_evaluated > 0]):
                rows = np.flatnonzero(n_evaluated == e)
                kept = combined[rows][evaluated[rows]].reshape(rows.size, e)
                aggregate[rows] = _row_mean(kept)
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

    Returns {metric: {team_key: DiversityScore}}. Classical-metric errors on
    a degenerate team abort the sweep naming the first such team in input
    order.
    """
    teams = list(teams)
    metrics = [normalize_metric(m) for m in metrics]
    if len(set(metrics)) != len(metrics):
        raise ValueError("duplicate metrics requested")
    keys = [team.team_key for team in teams]
    out = {}
    classical = [m for m in metrics if m != "SQ"]
    if classical:
        if cfg.negative_cap is None or cfg.use_full_set:
            scored = _closed_form_classical(cm, teams, classical, cfg)
        else:
            scored = _sampled_classical(cm, teams, classical, cfg)
        out.update((metric, dict(zip(keys, scored[metric]))) for metric in classical)
    if "SQ" in metrics:
        breakdowns = _FocalTables(pool, cm, teams, cfg).breakdowns(teams, cfg)
        out["SQ"] = {
            key: DiversityScore(
                "SQ", b.aggregate, detail=b,
                note="all-focals-skipped" if b.all_skipped else None,
            )
            for key, b in zip(keys, breakdowns)
        }
    return {metric: out[metric] for metric in metrics}
