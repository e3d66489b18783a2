"""Classical team diversity metrics over correctness outcomes.

All metrics read a team's rows of the correctness matrix restricted to an
evaluation subset, usually the negative samples (those where at least one
team member errs). Pairwise metrics reduce each unordered member pair to a
2x2 contingency table:

    n11  both correct      n10  first-only correct
    n01  second-only       n00  both wrong

and aggregate by unweighted mean over pairs; GD and KW read the per-sample
count of correct members. classical_batch derives all of these counts from
a Gram matrix of the correctness rows, for a batch of teams at once.
Degenerate denominators resolve to the metric's "no diversity information"
value instead of raising, so a sweep over thousands of candidate teams never
aborts mid-run; only an empty subset is an error.

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


def gram(bits):
    """Both-correct counts G = B @ B.T of boolean correctness rows (int64).

    G[a, b] counts the samples both a and b get right; the diagonal holds
    each row's correct count.
    """
    b = np.asarray(bits, dtype=np.int64)
    return b @ b.T


def _kappa_pairs(n11, n10, n01, n00):
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    num = 2.0 * (n11 * n00 - n01 * n10)
    # den == 0 means a perfectly redundant pair: kappa 1, diversity 0
    return np.where(den == 0, 1.0, num / np.where(den == 0, 1.0, den))


def _q_pairs(n11, n10, n01, n00):
    den = n11 * n00 + n01 * n10
    num = n11 * n00 - n01 * n10
    return np.where(den == 0, 0.0, num / np.where(den == 0, 1.0, den))


def _row_mean(values):
    # numpy sums a C-contiguous row pairwise, exactly as it sums a 1-d
    # array; a Fortran-ordered batch would be summed in another order.
    return np.ascontiguousarray(values).mean(axis=1)


def classical_batch(g, members, n, removed, metrics):
    """Score a batch of equal-size teams with each requested classical metric.

    g is the Gram matrix (see gram) of the correctness rows over some sample
    set S. members is a (teams, k) int array of model ids in member order.
    Team t is evaluated on S minus removed[t] samples on which every member
    is correct, n[t] > 0 samples in all. The scores then follow from g and
    removed alone (Kuncheva & Whitaker 2003): with G = g[a, b], r = diag(g)
    and R = removed[t], the pair counts on the subset are

        n11 = G - R    n10 = r[a] - G    n01 = r[b] - G    n00 = n - the rest

    which give CK, QS and BD; and the per-sample count c of correct members
    has moments sum(c) = sum_a r[a] - k R and sum(c^2) = sum_ab G - k^2 R,
    which give GD and KW. Every count is an exact integer, so each score
    equals the one computed from the subset's rows directly.

    Returns {metric: [DiversityScore per team]}.
    """
    members = np.asarray(members, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    removed = np.asarray(removed, dtype=np.int64)
    k = members.shape[1]
    ia, ib = np.triu_indices(k, k=1)
    a, b = members[:, ia], members[:, ib]
    both = g[a, b]
    r = np.diagonal(g)
    out = {}
    if any(m in metrics for m in ("CK", "QS", "BD")):
        n11 = (both - removed[:, None]).astype(np.float64)
        n10 = (r[a] - both).astype(np.float64)
        n01 = (r[b] - both).astype(np.float64)
        n00 = n[:, None] - n11 - n10 - n01
        if "CK" in metrics:
            out["CK"] = _row_mean(1.0 - _kappa_pairs(n11, n10, n01, n00))
        if "QS" in metrics:
            out["QS"] = _row_mean(_q_pairs(n11, n10, n01, n00))
        if "BD" in metrics:
            out["BD"] = _row_mean((n10 + n01) / n[:, None])
    no_failures = None
    if "GD" in metrics or "KW" in metrics:
        sum_r = r[members].sum(axis=1)
        sum_c = sum_r - k * removed
        sum_c2 = sum_r + 2 * both.sum(axis=1) - k * k * removed
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
    scores = {}
    for metric, values in out.items():
        notes = no_failures.tolist() if metric == "GD" else [False] * len(values)
        scores[metric] = [
            DiversityScore(metric, v, note="no-failures" if note else None)
            for v, note in zip(values.tolist(), notes)
        ]
    return scores


def classical_scores(sub, metrics):
    """Score one team's correctness rows with each requested classical metric.

    sub is the team's rows of the correctness matrix restricted to a
    non-empty evaluation subset (members x samples): classical_batch on its
    Gram matrix, as a batch of one team. Returns {metric: DiversityScore}.
    """
    k, n = sub.shape
    batch = classical_batch(gram(sub), np.arange(k)[None, :], [n], [0], metrics)
    return {metric: scores[0] for metric, scores in batch.items()}


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
