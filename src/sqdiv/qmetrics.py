"""Count formulas of the classical team diversity metrics, and sampling.

All metrics read a team's rows of the correctness matrix restricted to an
evaluation subset, usually the negative samples (those where at least one
team member errs). Pairwise metrics reduce each unordered member pair to a
2x2 contingency table:

    n11  both correct      n10  first-only correct
    n01  second-only       n00  both wrong

and aggregate by unweighted mean over pairs; GD and KW read the per-sample
count of correct members:

    CK  1 - kappa(n11 + n00, (n11+n10)(n11+n01) + (n01+n00)(n10+n00), n),
        Cohen's kappa of the two correctness rows; 0 for redundant members
    QS  Yule's Q = (n11 n00 - n01 n10) / (n11 n00 + n01 n10), a similarity
    BD  (n10 + n01) / n
    GD  1 - p(2)/p(1) (Partridge-Krzanowski), with p(1) the probability one
        random member fails a random sample and p(2) that two distinct ones
        both do; 0 with a "no-failures" note when nothing fails
    KW  sum over samples of c(k - c) / (n k^2), c correct of k members

classical_batch scores a batch of teams at once from each team's
both-correct counts on its own subset, as one float array per metric;
negative_samples draws a team's subset. scoring checks metric names and
attaches notes. SQ's agreement term shares CK's kappa, taken from exact
integer counts. Degenerate denominators resolve to the metric's "no diversity information"
value instead of raising, so a sweep over thousands of candidate teams
never aborts mid-run.

Everything here is a pure function of immutable inputs and safe to call
concurrently across teams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .teams import _member_ids, _whole

ANY_MEMBER_ERRS = "any-member-errs"
FOCAL_ERRS = "focal-errs"

CLASSICAL = ("CK", "QS", "BD", "GD", "KW")


class UndefinedDiversityError(ValueError):
    """A diversity value was requested on an empty evaluation subset."""

    def __init__(self, metric, message=None):
        self.metric = metric
        super().__init__(message or f"undefined diversity: {metric} needs a non-empty subset")


@dataclass(frozen=True)
class NegativeSampleSet:
    """Deterministic sample subset for diversity evaluation.

    Without a focal_id (any-member-errs mode) every included sample has at
    least one team member wrong; with one (focal-errs mode) the focal model
    is wrong on every included sample. With a cap, a uniform subset of the
    qualifying samples is drawn from the given seed; identical inputs give
    identical sets.
    """

    sample_indices: tuple[int, ...]
    focal_id: int | None

    @property
    def mode(self):
        return ANY_MEMBER_ERRS if self.focal_id is None else FOCAL_ERRS

    def __len__(self):
        return len(self.sample_indices)


@dataclass(frozen=True)
class DiversityScore:
    metric: str
    value: float
    detail: object = None
    note: str | None = None


def negative_samples(cm, team, seed=0, cap=None, focal_id=None):
    """Collect the qualifying sample subset for a team: the samples some
    member gets wrong, or with a focal_id, which must be a member, the
    samples that model gets wrong.

    Returns every qualifying sample when cap is None, otherwise a uniform
    random subset of size min(cap, qualifying count) drawn with the seed.
    An empty qualifying set is not an error; callers decide what it means.
    team and focal_id are checked as teams.make_team checks a team, cap and
    seed by teams._whole.
    """
    members = _member_ids(team, cm.n_models)
    seed = _whole(seed, "seed", 0)
    if focal_id is None:
        qualifying = np.flatnonzero(~cm.bits[list(members)].all(axis=0))
    else:
        (focal_id,) = _member_ids([focal_id], cm.n_models, 1)
        if focal_id not in members:
            raise ValueError(f"focal_id {focal_id} is not a member of team {members}")
        qualifying = np.flatnonzero(~cm.bits[focal_id])
    if cap is not None and _whole(cap, "cap", 1) < qualifying.size:
        keep = np.random.default_rng(seed).choice(qualifying.size, size=cap, replace=False)
        qualifying = np.sort(qualifying[keep])
    return NegativeSampleSet(sample_indices=tuple(qualifying.tolist()), focal_id=focal_id)


def gram(bits):
    """Both-correct counts G = B @ B.T of boolean correctness rows (int64).

    G[a, b] counts the samples both a and b get right; the diagonal holds
    each row's correct count.
    """
    b = np.asarray(bits, dtype=np.int64)
    return b @ b.T


def kappa(agree, chance, n):
    """Cohen's kappa of two raters over n samples, from exact integer counts:
    agree, the samples they agree on, and chance = sum_c a_c b_c, their
    per-class label counts multiplied and summed over the classes. kappa =
    (n agree - chance) / (n^2 - chance), (p_o - p_e) / (1 - p_e) cleared of
    fractions; n^2 == chance (both raters constant on one class) resolves
    to 1. The arguments broadcast."""
    num = n * agree - chance
    den = n * n - chance
    return np.where(den == 0, 1.0, num / np.where(den == 0, 1, den))


def _q_pairs(n11, n10, n01, n00):
    den = n11 * n00 + n01 * n10
    num = n11 * n00 - n01 * n10
    return np.where(den == 0, 0.0, num / np.where(den == 0, 1.0, den))


def row_mean(values):
    """Mean of each row of a 2-d array, equal to np.mean of that row alone.

    numpy sums a C-contiguous row pairwise, exactly as it sums a 1-d array;
    a Fortran-ordered batch would be summed in another order.
    """
    return np.ascontiguousarray(values).mean(axis=1)


def classical_batch(counts, n, metrics):
    """Score a batch of equal-size teams with each requested classical metric.

    counts is a (teams, k, k) int array: counts[t, a, b] counts the samples
    of team t's own subset, n[t] > 0 samples, on which members a and b are
    both right, and the diagonal r = counts[t, a, a] holds each member's
    correct count. The scores follow from these counts alone (Kuncheva &
    Whitaker 2003): with G = counts[t, a, b], the pair counts are

        n11 = G    n10 = r[a] - G    n01 = r[b] - G    n00 = n - the rest

    which give CK, QS and BD; and the per-sample count c of correct members
    has moments sum(c) = sum_a r[a] and sum(c^2) = sum_ab G, which give GD
    and KW. Every count is an exact integer, so each score equals the one
    computed from the subset's rows directly.

    Returns ({metric: float array, one score per team}, no_failures), where
    no_failures is the boolean array of teams whose GD carries the
    "no-failures" note, or None when GD is not requested.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    k = counts.shape[1]
    ia, ib = np.triu_indices(k, k=1)
    both = counts[:, ia, ib]
    r = np.diagonal(counts, axis1=1, axis2=2)
    out = {}
    if any(m in metrics for m in ("CK", "QS", "BD")):
        n11 = both
        n10 = r[:, ia] - both
        n01 = r[:, ib] - both
        n00 = n[:, None] - n11 - n10 - n01
        if "CK" in metrics:
            chance = (n11 + n10) * (n11 + n01) + (n01 + n00) * (n10 + n00)
            out["CK"] = row_mean(1.0 - kappa(n11 + n00, chance, n[:, None]))
        if "QS" in metrics:
            out["QS"] = row_mean(_q_pairs(n11, n10, n01, n00))
        if "BD" in metrics:
            out["BD"] = row_mean((n10 + n01) / n[:, None])
    no_failures = None
    if "GD" in metrics or "KW" in metrics:
        sum_c = r.sum(axis=1)
        sum_c2 = sum_c + 2 * both.sum(axis=1)
        if "GD" in metrics:
            # w = k - c wrong members per sample: p1 = mean(w) / k,
            # p2 = mean(w (w - 1)) / (k (k - 1)).
            wrong = n * k - sum_c
            wrong2 = n * k * k - 2 * k * sum_c + sum_c2 - wrong
            p1 = wrong / n / k
            p2 = wrong2 / n / (k * (k - 1))
            no_failures = p1 == 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                out["GD"] = np.where(no_failures, 0.0, 1.0 - p2 / p1)
        if "KW" in metrics:
            out["KW"] = (k * sum_c - sum_c2) / (n * k * k)
    return out, no_failures

