"""Ranking candidate teams by diversity and reporting top-K selections.

Ordering is total and deterministic: most-diverse score first (direction
depends on the metric), ties go to the smaller team, residual ties to the
lexicographically smaller team key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pool import model_accuracy
from .scoring import (
    HIGHER_IS_DIVERSE,
    ScoreConfig,
    metric_direction,
    normalize_metric,
    score_teams,
)
from .teams import (
    SOFT,
    EnsembleTeam,
    _whole,
    consensus,
    enumerate_teams,
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


def rank_teams(scores, k):
    """Rank the teams of a ScoreColumn in its metric's direction and return
    the top k entries.

    scores is one metric's ScoreColumn from score_teams; only its metric,
    team_keys, team_sizes and array are read. k, a positive integer by
    teams._whole, larger than the column returns every team.
    """
    metric = scores.metric
    k = _whole(k, "k", 1)
    keys, values = scores.team_keys, scores.array
    if not len(keys):
        raise ValueError("rank_teams needs a non-empty score column")
    direction = metric_direction(metric)
    sign = -1.0 if direction == HIGHER_IS_DIVERSE else 1.0
    # np.lexsort is stable and sorts by its last key first. Keys compare as
    # strings ("1-10" < "1-2"), and -0.0 ties with 0.0.
    order = np.lexsort((np.array(keys), scores.team_sizes, sign * values))[:k]
    return [
        RankedEntry(rank=rank, team=EnsembleTeam(parse_team_key(keys[i]), keys[i]),
                    metric=metric, score=float(values[i]), direction=direction)
        for rank, i in enumerate(order.tolist(), start=1)
    ]


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
    teams = enumerate_teams(pool.n_models, min_size, max_size)
    scored = score_teams(pool, cm, teams, [metric], cfg)[metric]
    rows = []
    for entry in rank_teams(scored, k):
        acc = consensus(pool, entry.team, consensus_method).accuracy
        best = max(model_accuracy(cm, m) for m in entry.team.member_ids)
        rows.append(
            SelectionRow(
                rank=entry.rank,
                team_key=entry.team.team_key,
                metric=metric,
                score=entry.score,
                ensemble_accuracy=acc,
                best_single_accuracy=best,
                improvement=acc - best,
            )
        )
    return SelectionReport(metric=metric, consensus_method=consensus_method, rows=tuple(rows))
