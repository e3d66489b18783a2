"""Classical team diversity metrics over correctness outcomes.

All metrics read a team's rows of the correctness matrix restricted to an
evaluation subset, usually the negative samples (those where at least one
team member errs). Pairwise metrics reduce each unordered member pair to a
2x2 contingency table:

    n11  both correct      n10  first-only correct
    n01  second-only       n00  both wrong

and aggregate by unweighted mean over pairs. Degenerate denominators resolve
to the metric's "no diversity information" value instead of raising, so a
sweep over thousands of candidate teams never aborts mid-run; only an empty
subset is an error.

Everything here is a pure function of immutable inputs and safe to call
concurrently across teams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ANY_MEMBER_ERRS = "any-member-errs"
FOCAL_ERRS = "focal-errs"


class UndefinedDiversityError(ValueError):
    """A diversity value was requested on an empty evaluation subset."""

    def __init__(self, metric, message=None):
        self.metric = metric
        super().__init__(message or f"undefined diversity: {metric} needs a non-empty subset")


@dataclass(frozen=True)
class PairContingency:
    n11: int
    n10: int
    n01: int
    n00: int

    @property
    def size(self):
        return self.n11 + self.n10 + self.n01 + self.n00


@dataclass(frozen=True)
class NegativeSampleSet:
    """Deterministic sample subset for diversity evaluation.

    In any-member-errs mode every included sample has at least one team
    member wrong; in focal-errs mode the focal model is wrong on every
    included sample. With a cap, a uniform subset of the qualifying samples
    is drawn from the given seed; identical inputs give identical sets.
    """

    sample_indices: tuple[int, ...]
    mode: str
    focal_id: int | None
    seed: int
    cap: int | None

    def __len__(self):
        return len(self.sample_indices)


@dataclass(frozen=True)
class DiversityScore:
    metric: str
    value: float
    detail: object = None
    note: str | None = None


def _member_ids(team):
    ids = tuple(getattr(team, "member_ids", team))
    return tuple(int(i) for i in ids)


def _subset_indices(subset, n_samples):
    if isinstance(subset, NegativeSampleSet):
        idx = np.asarray(subset.sample_indices, dtype=np.int64)
    else:
        idx = np.asarray(list(subset), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n_samples):
        raise ValueError("subset index out of range")
    return idx


def negative_samples(cm, team, mode=ANY_MEMBER_ERRS, seed=0, cap=None, focal_id=None):
    """Collect the qualifying sample subset for a team.

    Returns every qualifying sample when cap is None, otherwise a uniform
    random subset of size min(cap, qualifying count) drawn with the seed.
    An empty qualifying set is not an error; callers decide what it means.
    """
    members = _member_ids(team)
    if any(m < 0 or m >= cm.n_models for m in members):
        raise ValueError("team member outside the pool")
    if mode == ANY_MEMBER_ERRS:
        qualifying = np.flatnonzero(~cm.bits[list(members)].all(axis=0))
    elif mode == FOCAL_ERRS:
        if focal_id is None or focal_id not in members:
            raise ValueError("focal-errs mode needs a focal_id within the team")
        qualifying = np.flatnonzero(~cm.bits[int(focal_id)])
    else:
        raise ValueError(f"unknown negative-sampling mode: {mode!r}")
    if cap is not None:
        if cap < 1:
            raise ValueError("cap must be a positive integer")
        if cap < qualifying.size:
            rng = np.random.default_rng(seed)
            keep = rng.choice(qualifying.size, size=cap, replace=False)
            qualifying = np.sort(qualifying[keep])
    return NegativeSampleSet(
        sample_indices=tuple(qualifying.tolist()),
        mode=mode,
        focal_id=None if mode == ANY_MEMBER_ERRS else int(focal_id),
        seed=int(seed),
        cap=cap,
    )


def pair_contingency(cm, model_a, model_b, subset):
    """Exact 2x2 correctness counts for one model pair over the subset."""
    idx = _subset_indices(subset, cm.n_samples)
    a = cm.bits[int(model_a)][idx]
    b = cm.bits[int(model_b)][idx]
    n11 = int(np.count_nonzero(a & b))
    n10 = int(np.count_nonzero(a & ~b))
    n01 = int(np.count_nonzero(~a & b))
    return PairContingency(n11=n11, n10=n10, n01=n01, n00=int(idx.size) - n11 - n10 - n01)


def _pair_counts(sub):
    """Vectorized contingency counts for all unordered row pairs of sub."""
    f = sub.astype(np.float64)
    both = f @ f.T
    row = f.sum(axis=1)
    i, j = np.triu_indices(sub.shape[0], k=1)
    n11 = both[i, j]
    n10 = row[i] - n11
    n01 = row[j] - n11
    n00 = sub.shape[1] - n11 - n10 - n01
    return n11, n10, n01, n00


def _kappa_pairs(n11, n10, n01, n00):
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    num = 2.0 * (n11 * n00 - n01 * n10)
    # den == 0 means a perfectly redundant pair: kappa 1, diversity 0
    return np.where(den == 0, 1.0, num / np.where(den == 0, 1.0, den))


def _q_pairs(n11, n10, n01, n00):
    den = n11 * n00 + n01 * n10
    num = n11 * n00 - n01 * n10
    return np.where(den == 0, 0.0, num / np.where(den == 0, 1.0, den))


def classical_scores(sub, metrics):
    """Score one team's correctness rows with each requested classical metric.

    sub is the team's rows of the correctness matrix restricted to a
    non-empty evaluation subset (members x samples). The pair contingency
    counts are computed once and shared by CK, QS and BD; GD and KW share
    the per-sample count of correct members. Returns {metric: DiversityScore}.
    """
    m, n = sub.shape
    out = {}
    if any(k in metrics for k in ("CK", "QS", "BD")):
        n11, n10, n01, n00 = _pair_counts(sub)
        if "CK" in metrics:
            kappas = _kappa_pairs(n11, n10, n01, n00)
            out["CK"] = DiversityScore("CK", float(np.mean(1.0 - kappas)))
        if "QS" in metrics:
            out["QS"] = DiversityScore("QS", float(np.mean(_q_pairs(n11, n10, n01, n00))))
        if "BD" in metrics:
            out["BD"] = DiversityScore("BD", float(np.mean((n10 + n01) / n)))
    if "GD" in metrics or "KW" in metrics:
        correct = sub.sum(axis=0)
        if "GD" in metrics:
            wrong = m - correct
            p1 = float(wrong.mean()) / m
            if p1 == 0.0:
                out["GD"] = DiversityScore("GD", 0.0, note="no-failures")
            else:
                p2 = float((wrong * (wrong - 1)).mean()) / (m * (m - 1))
                out["GD"] = DiversityScore("GD", float(1.0 - p2 / p1))
        if "KW" in metrics:
            out["KW"] = DiversityScore("KW", float((correct * (m - correct)).sum() / (n * m * m)))
    return out


def _classical(cm, team, subset, metric):
    members = _member_ids(team)
    if len(members) < 2:
        raise ValueError(f"{metric} needs a team of at least 2 members")
    idx = _subset_indices(subset, cm.n_samples)
    if idx.size == 0:
        raise UndefinedDiversityError(metric)
    return classical_scores(cm.bits[list(members)][:, idx], (metric,))[metric]


def cohen_kappa_diversity(cm, team, subset):
    """Mean pairwise 1 - kappa over the subset.

    kappa = 2(n11*n00 - n01*n10) / ((n11+n10)(n10+n00) + (n11+n01)(n01+n00)),
    so the team score lies in [0, 2], 0 meaning perfectly redundant members.
    """
    return _classical(cm, team, subset, "CK")


def q_statistic(cm, team, subset):
    """Mean pairwise Yule Q; 1 for identical members, 0 for independence.

    Returned raw (a similarity), so the selection layer treats lower values
    as more diverse.
    """
    return _classical(cm, team, subset, "QS")


def binary_disagreement(cm, team, subset):
    """Mean pairwise fraction of subset samples where exactly one is correct."""
    return _classical(cm, team, subset, "BD")


def generalized_diversity(cm, team, subset):
    """Partridge-Krzanowski generalized diversity in [0, 1].

    With p(1) the probability one random member fails a random subset sample
    and p(2) the probability two distinct random members both fail it,
    GD = 1 - p(2)/p(1). No failures at all gives 0 with a "no-failures" note.
    """
    return _classical(cm, team, subset, "GD")


def kohavi_wolpert(cm, team, subset):
    """Kohavi-Wolpert variance: sum of l(M'-l) over samples / (n * M'^2)."""
    return _classical(cm, team, subset, "KW")
