"""Synergistic diversity: focal-model disagreement plus non-focal agreement.

Each team member takes a turn as the focal model. Its failure samples form
the focal negative set, on which two count statistics are taken:

* sq_epsilon -- mean binary disagreement between each non-focal member and
  the focal model. Because the focal is wrong on every negative sample,
  this is the mean non-focal accuracy there, the share of the negative set
  a non-focal member gets right: the team's capacity to cover the focal's
  mistakes.
* sq_alpha -- mean pairwise multi-class Cohen's kappa over the non-focal
  members' predicted labels on those samples: whether the potential
  correctors actually agree with each other. Each kappa follows from the
  pair's agreement count and the two members' per-class label counts.

The per-focal score is w_epsilon * sq_epsilon + w_alpha * sq_alpha, and the
team score is the mean over every member that has at least one failure;
members with no failures are skipped. Both weights default to 1.

This module holds the kappa formula and the breakdown records;
scoring.score_teams builds the focal negative sets, tabulates both terms
from counts and aggregates them per team.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def cohen_kappa(p_o, p_e):
    """Cohen's kappa from the observed agreement p_o and the chance
    agreement p_e; the p_e >= 1 degeneracy (both raters constant) resolves
    to 1 when the labels match, else 0."""
    if p_e >= 1.0:
        return 1.0 if p_o >= 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def multiclass_kappa(labels_a, labels_b, n_classes):
    """Cohen's kappa between two label sequences.

    p_e is the product of per-class label marginals.
    """
    a = np.asarray(labels_a, dtype=np.int64)
    b = np.asarray(labels_b, dtype=np.int64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("label sequences must be non-empty and equal-length")
    p_o = float(np.count_nonzero(a == b)) / a.size
    marg_a = np.bincount(a, minlength=n_classes) / a.size
    marg_b = np.bincount(b, minlength=n_classes) / b.size
    return cohen_kappa(p_o, float(marg_a @ marg_b))
