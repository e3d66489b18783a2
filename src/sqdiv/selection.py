"""Ranking candidate teams by diversity and reporting top-K selections.

Ordering is total and deterministic: most-diverse score first (direction
depends on the metric), ties go to the smaller team, residual ties to the
lexicographically smaller team key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pool import model_accuracy
from .qmetrics import DiversityScore
from .scoring import (
    HIGHER_IS_DIVERSE,
    ScoreColumn,
    ScoreConfig,
    metric_direction,
    normalize_metric,
    score_teams,
)
from .teams import (
    SOFT,
    EnsembleTeam,
    consensus,
    enumerate_teams,
    make_team,
    normalize_method,
    parse_team_key,
)

@dataclass(frozen=True)
class RankedEntry:
    rank: int
    team: EnsembleTeam
    metric: str
    score: float
    direction: str


@dataclass(frozen=True)
class SelectionRow:
    rank: int
    team_key: str
    metric: str
    score: float
    ensemble_accuracy: float
    best_single_accuracy: float
    improvement: float


@dataclass(frozen=True)
class SelectionReport:
    metric: str
    consensus_method: str
    rows: tuple[SelectionRow, ...]


def _coerce_team(team):
    if isinstance(team, EnsembleTeam):
        return team
    key = str(team)
    return EnsembleTeam(member_ids=parse_team_key(key), team_key=key)


def _score_value(score):
    return score.value if isinstance(score, DiversityScore) else float(score)


def rank_teams(scores, metric, k):
    """Rank a {team: score} map and return the top k entries.

    scores is a ScoreColumn from score_teams, whose arrays are read
    directly, or a plain map whose teams may be EnsembleTeam objects or
    team-key strings and whose scores may be DiversityScores or numbers. k
    larger than the map returns everything.
    """
    metric = normalize_metric(metric)
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(scores, ScoreColumn):
        teams = None
        keys, sizes, values = scores.team_keys, scores.team_sizes, scores.array
    else:
        teams = [_coerce_team(t) for t in scores]
        keys = [t.team_key for t in teams]
        sizes = [t.size for t in teams]
        values = np.array([_score_value(s) for s in scores.values()], dtype=np.float64)
    if not len(keys):
        raise ValueError("rank_teams needs a non-empty score map")
    direction = metric_direction(metric)
    sign = -1.0 if direction == HIGHER_IS_DIVERSE else 1.0
    # np.lexsort is stable and sorts by its last key first. Keys compare as
    # strings ("1-10" < "1-2"), and -0.0 ties with 0.0.
    order = np.lexsort((np.array(keys), sizes, sign * values))
    ranked = []
    for i in order.tolist():
        if ranked and ranked[-1].team.team_key == keys[i]:
            continue  # a team scored twice in one column
        team = teams[i] if teams else _coerce_team(keys[i])
        ranked.append(RankedEntry(rank=len(ranked) + 1, team=team, metric=metric,
                                  score=float(values[i]), direction=direction))
        if len(ranked) == k:
            break
    return ranked


def select_and_evaluate(
    pool, cm, metric, cfg=ScoreConfig(), k=10, consensus_method=SOFT,
    min_size=2, max_size=None,
):
    """Score every candidate team, rank, and evaluate the top k by consensus.

    Each report row carries the team's consensus accuracy, its best single
    member's accuracy, and the improvement (ensemble minus best member).
    """
    metric = normalize_metric(metric)
    consensus_method = normalize_method(consensus_method)
    teams = list(enumerate_teams(pool.n_models, min_size, max_size))
    scored = score_teams(pool, cm, teams, [metric], cfg)[metric]
    ranked = rank_teams(scored, metric, k)
    rows = []
    for entry in ranked:
        team = make_team(entry.team.member_ids, pool.n_models)
        acc = consensus(pool, team, consensus_method).accuracy
        best = max(model_accuracy(cm, m) for m in team.member_ids)
        rows.append(
            SelectionRow(
                rank=entry.rank,
                team_key=team.team_key,
                metric=metric,
                score=entry.score,
                ensemble_accuracy=acc,
                best_single_accuracy=best,
                improvement=acc - best,
            )
        )
    return SelectionReport(metric=metric, consensus_method=consensus_method, rows=tuple(rows))
