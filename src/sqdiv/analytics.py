"""Evaluation artifacts: scatter data, diversity-accuracy correlations, and
per-sample case studies.

Scatter and correlation run over the full candidate set, not a top-K slice,
so the reported association covers the whole diversity-accuracy cloud.
Rendering is out of scope; everything here emits plot-ready rows or JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scoring import ScoreConfig, score_teams
from .teams import SOFT, consensus, enumerate_teams, make_team, team_accuracy_table, team_plan


class UndefinedCorrelationError(ValueError):
    """Correlation requested on a constant (zero-variance) sequence, or on
    values whose correlation is not a finite number."""


def pearson(xs, ys):
    """Pearson product-moment correlation of two equal-length sequences, from
    numpy's own sums: a BLAS dot's order depends on the kernel and threads."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("pearson needs two equal-length 1-d sequences")
    if x.size < 2:
        raise ValueError("pearson needs at least 2 points")
    with np.errstate(all="ignore"):  # a non-finite value, or sums past the float range
        xc = x - x.mean()
        yc = y - y.mean()
        vx = float(np.add.reduce(xc * xc))
        vy = float(np.add.reduce(yc * yc))
        cov = float(np.add.reduce(xc * yc))
    if vx == 0.0 or vy == 0.0:
        raise UndefinedCorrelationError("undefined correlation: zero variance")
    if not (math.isfinite(vx * vy) and math.isfinite(cov)):
        raise UndefinedCorrelationError("undefined correlation: non-finite values")
    return float(cov / math.sqrt(vx * vy))


def _ranks(values):
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    base = np.empty(v.size, dtype=np.float64)
    base[order] = np.arange(1, v.size + 1, dtype=np.float64)
    _, inverse = np.unique(v, return_inverse=True)
    sums = np.bincount(inverse, weights=base)
    counts = np.bincount(inverse)
    return (sums / counts)[inverse]


def spearman(xs, ys):
    """Spearman rank correlation (average ranks on ties)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("spearman needs two equal-length 1-d sequences")
    return pearson(_ranks(x), _ranks(y))


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Shared sweep over all candidate teams, in enumeration order: team keys
    and sizes, one ScoreColumn per metric and the consensus accuracies, the
    sizes and accuracies as arrays (so two results compare by identity)."""

    team_keys: tuple[str, ...]
    team_sizes: np.ndarray
    scores: dict
    accuracy: np.ndarray

    def rows(self, metric):
        """One (team_key, team_size, score, accuracy) row per candidate team."""
        return list(zip(
            self.team_keys, self.team_sizes.tolist(),
            self.scores[metric].array.tolist(), self.accuracy.tolist(),
        ))

    def correlations(self, estimator):
        """{metric: estimator(team scores, team accuracies)} for every scored
        metric; a constant score or accuracy column, or one whose correlation
        is not finite, reports None."""
        report = {}
        for metric, column in self.scores.items():
            try:
                report[metric] = estimator(column.array, self.accuracy)
            except UndefinedCorrelationError:
                report[metric] = None
        return report


def sweep(pool, cm, metrics, cfg=ScoreConfig(), consensus_method=SOFT,
          min_size=2, max_size=None):
    # perfbench's tracer hands enumerate_teams' teams back as a list.
    plan = team_plan(enumerate_teams(pool.n_models, min_size, max_size), pool.n_models)
    return SweepResult(
        team_keys=plan.team_keys,
        team_sizes=plan.team_sizes,
        scores=score_teams(pool, cm, plan, metrics, cfg),
        accuracy=team_accuracy_table(pool, plan, consensus_method),
    )


def correlation_report(pool, cm, metrics, cfg=ScoreConfig(), consensus_method=SOFT,
                       use_spearman=False, min_size=2, max_size=None):
    """Correlation between each metric's team scores and team accuracies.

    A metric whose scores are constant across teams (or a constant accuracy
    column) has no defined correlation and reports None.
    """
    result = sweep(pool, cm, metrics, cfg, consensus_method, min_size, max_size)
    return result.correlations(spearman if use_spearman else pearson)


def case_study(pool, team, sample_id, consensus_method=SOFT):
    """Faithful slice of one sample: member probabilities, member argmax
    labels, the consensus label, and the truth. JSON-ready."""
    j = pool.sample_index(sample_id)
    team = make_team(team, pool.n_models)
    labels = pool.predicted_labels()
    fused = consensus(pool, team, consensus_method)
    truth_idx = int(pool.truth[j])
    members = []
    for m in team.member_ids:
        pred_idx = int(labels[m, j])
        members.append({
            "model_id": m,
            "name": pool.models[m],
            "probabilities": [float(v) for v in pool.probs[m, j]],
            "predicted": pool.classes[pred_idx],
            "correct": pred_idx == truth_idx,
        })
    consensus_idx = int(fused.predicted[j])
    return {
        "sample_id": pool.sample_ids[j],
        "team": team.team_key,
        "classes": list(pool.classes),
        "truth": pool.classes[truth_idx],
        "members": members,
        "consensus": {
            "method": fused.method,
            "predicted": pool.classes[consensus_idx],
            "correct": consensus_idx == truth_idx,
        },
    }
