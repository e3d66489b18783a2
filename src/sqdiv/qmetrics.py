"""Classical team diversity metrics over correctness outcomes.

All metrics read a team's rows of the correctness matrix restricted to an
evaluation subset, usually the negative samples (those where at least one
team member errs). Pairwise metrics reduce each unordered member pair to a
2x2 contingency table:

    n11  both correct      n10  first-only correct
    n01  second-only       n00  both wrong

and aggregate by unweighted mean over pairs; GD and KW read the per-sample
count of correct members:

    CK  1 - kappa, kappa = 2(n11 n00 - n01 n10) /
        ((n11+n10)(n10+n00) + (n11+n01)(n01+n00)); 0 for redundant members
    QS  Yule's Q = (n11 n00 - n01 n10) / (n11 n00 + n01 n10), a similarity
    BD  (n10 + n01) / n
    GD  1 - p(2)/p(1) (Partridge-Krzanowski), with p(1) the probability one
        random member fails a random sample and p(2) that two distinct ones
        both do; 0 with a "no-failures" note when nothing fails
    KW  sum over samples of c(k - c) / (n k^2), c correct of k members

classical_batch derives all of these counts from a Gram matrix of the
correctness rows, for a batch of teams at once; classical_scores scores one
team's rows on an explicit subset. Degenerate denominators resolve to the
metric's "no diversity information" value instead of raising, so a sweep
over thousands of candidate teams never aborts mid-run; only a team of
fewer than 2 members or an empty subset is an error.

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

    sub is the team's rows of the correctness matrix restricted to an
    evaluation subset (members x samples): classical_batch on its Gram
    matrix, as a batch of one team. Returns {metric: DiversityScore}.
    Raises ValueError for fewer than 2 members and UndefinedDiversityError
    for an empty subset.
    """
    k, n = sub.shape
    if k < 2:
        raise ValueError("classical metrics need a team of at least 2 members")
    if n == 0:
        raise UndefinedDiversityError(metrics[0])
    batch = classical_batch(gram(sub), np.arange(k)[None, :], [n], [0], metrics)
    return {metric: scores[0] for metric, scores in batch.items()}
