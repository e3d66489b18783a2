"""Synergistic diversity: focal-model disagreement plus non-focal agreement.

Each team member takes a turn as the focal model. Its failure samples form
the focal negative set, on which two components are measured:

* sq_epsilon -- mean binary disagreement between each non-focal member and
  the focal model. Because the focal is wrong on every negative sample,
  this equals the mean non-focal accuracy there: the team's capacity to
  cover the focal's mistakes.
* sq_alpha -- mean pairwise multi-class Cohen's kappa over the non-focal
  members' predicted labels on those samples: whether the potential
  correctors actually agree with each other.

The per-focal score is w_epsilon * sq_epsilon + w_alpha * sq_alpha, and the
team score is the mean over every member that has at least one failure;
members with no failures are skipped. Both weights default to 1.

This module holds the per-focal formulas; scoring.score_teams builds the
focal negative sets, tabulates these terms and aggregates them per team.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmetrics import (
    FOCAL_ERRS,
    NegativeSampleSet,
    _member_ids,
    _subset_indices,
    pair_contingency,
)


class EmptyFocalNegativesError(ValueError):
    """The focal model has no negative samples; callers skip this focal."""

    def __init__(self, focal_id):
        self.focal_id = focal_id
        super().__init__(f"focal {focal_id} has no negative samples")


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


def _check_focal_set(neg, focal_id):
    if isinstance(neg, NegativeSampleSet):
        if neg.mode != FOCAL_ERRS or neg.focal_id != focal_id:
            raise ValueError("negative set was not built in focal-errs mode for this focal")


def sq_epsilon(cm, team, focal_id, neg):
    """Mean binary disagreement of non-focal members with the focal on neg."""
    members = _member_ids(team)
    if len(members) < 2:
        raise ValueError("sq_epsilon needs a team of at least 2 members")
    if focal_id not in members:
        raise ValueError("focal model must be a team member")
    _check_focal_set(neg, focal_id)
    idx = _subset_indices(neg, cm.n_samples)
    if idx.size == 0:
        raise EmptyFocalNegativesError(focal_id)
    values = []
    for m in members:
        if m == focal_id:
            continue
        c = pair_contingency(cm, m, focal_id, idx)
        values.append((c.n10 + c.n01) / c.size)
    return float(np.mean(np.asarray(values)))


def multiclass_kappa(labels_a, labels_b, n_classes):
    """Cohen's kappa between two label sequences.

    p_e is the product of per-class label marginals; the p_e == 1 degeneracy
    (both raters constant) resolves to 1 when the labels match, else 0.
    """
    a = np.asarray(labels_a, dtype=np.int64)
    b = np.asarray(labels_b, dtype=np.int64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("label sequences must be non-empty and equal-length")
    p_o = float(np.count_nonzero(a == b)) / a.size
    marg_a = np.bincount(a, minlength=n_classes) / a.size
    marg_b = np.bincount(b, minlength=n_classes) / b.size
    p_e = float(marg_a @ marg_b)
    if p_e >= 1.0:
        return 1.0 if p_o >= 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def sq_alpha(pool, team, focal_id, neg, on_labels=True):
    """Mean pairwise kappa among non-focal members on the focal negatives.

    A team of size 2 has a single non-focal member and scores 0 by
    definition, so self-agreement never inflates pairs.
    """
    members = _member_ids(team)
    if len(members) < 2:
        raise ValueError("sq_alpha needs a team of at least 2 members")
    if focal_id not in members:
        raise ValueError("focal model must be a team member")
    _check_focal_set(neg, focal_id)
    idx = _subset_indices(neg, pool.n_samples)
    if idx.size == 0:
        raise EmptyFocalNegativesError(focal_id)
    others = [m for m in members if m != focal_id]
    if len(others) < 2:
        return 0.0
    if on_labels:
        data = pool.predicted_labels()[:, idx]
        n_classes = pool.n_classes
    else:
        data = (pool.predicted_labels()[:, idx] == pool.truth[idx][None, :]).astype(np.int64)
        n_classes = 2
    kappas = []
    for ai in range(len(others)):
        for bi in range(ai + 1, len(others)):
            kappas.append(multiclass_kappa(data[others[ai]], data[others[bi]], n_classes))
    return float(np.mean(np.asarray(kappas)))
