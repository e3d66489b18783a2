"""Metric registry and the team scorer.

score_teams is the only scorer; score_team is score_teams run on one team.
Per team it slices the correctness rows once and hands them to
qmetrics.classical_scores, which shares the pair contingency counts among
the pairwise metrics. For the synergy metric the focal negative sets and
per-focal pair statistics depend only on the focal model (never on the rest
of the team), so they are built once per call, over the models that appear
in the requested teams, and reused across all of them.

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
    _subset_indices,
    classical_scores,
    negative_samples,
)
from .sq import FocalResult, SQBreakdown, sq_alpha, sq_epsilon
from .teams import EnsembleTeam, make_team

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


def _q_subset(cm, team, cfg):
    if cfg.use_full_set:
        return np.arange(cm.n_samples)
    return negative_samples(
        cm, team, mode=ANY_MEMBER_ERRS, seed=cfg.seed, cap=cfg.negative_cap
    )


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

    def breakdown(self, team, cfg):
        """Rotate the focal role through every member; members with no
        negative samples are skipped, and the team score is the mean
        combined score of the rest (0 when every focal is skipped)."""
        members = _member_ids(team)
        per_focal, skipped = [], set()
        for focal in members:
            if self.counts[focal] == 0:
                skipped.add(focal)
                continue
            others = [m for m in members if m != focal]
            eps = float(np.mean(self.acc[focal, others]))
            if len(others) < 2:
                alpha = 0.0
            else:
                pair_vals = [
                    self.kappa[focal, others[a], others[b]]
                    for a in range(len(others))
                    for b in range(a + 1, len(others))
                ]
                alpha = float(np.mean(np.asarray(pair_vals)))
            per_focal.append(
                FocalResult(
                    focal_id=focal,
                    negative_count=int(self.counts[focal]),
                    sq_epsilon=eps,
                    sq_alpha=alpha,
                    combined=cfg.w_epsilon * eps + cfg.w_alpha * alpha,
                )
            )
        if per_focal:
            aggregate = float(np.mean(np.asarray([f.combined for f in per_focal])))
        else:
            aggregate = 0.0
        return SQBreakdown(
            per_focal=tuple(per_focal),
            aggregate=aggregate,
            skipped_focals=frozenset(skipped),
            all_skipped=not per_focal,
        )


def score_teams(pool, cm, teams, metrics, cfg=ScoreConfig()):
    """Score many teams with many metrics in one pass.

    Returns {metric: {team_key: DiversityScore}}. Classical-metric errors on
    a degenerate team abort the sweep with the offending team identified.
    """
    teams = list(teams)
    metrics = [normalize_metric(m) for m in metrics]
    if len(set(metrics)) != len(metrics):
        raise ValueError("duplicate metrics requested")
    out = {m: {} for m in metrics}
    classical = [m for m in metrics if m != "SQ"]
    tables = _FocalTables(pool, cm, teams, cfg) if "SQ" in metrics else None

    for team in teams:
        if classical:
            idx = _subset_indices(_q_subset(cm, team, cfg), cm.n_samples)
            if idx.size == 0:
                raise UndefinedDiversityError(
                    classical[0],
                    f"undefined diversity: {'/'.join(classical)} on team "
                    f"{team.team_key} (empty evaluation subset)",
                )
            sub = cm.bits[list(_member_ids(team))][:, idx]
            for metric, score in classical_scores(sub, classical).items():
                out[metric][team.team_key] = score
        if tables is not None:
            breakdown = tables.breakdown(team, cfg)
            note = "all-focals-skipped" if breakdown.all_skipped else None
            out["SQ"][team.team_key] = DiversityScore(
                "SQ", breakdown.aggregate, detail=breakdown, note=note
            )
    return out
