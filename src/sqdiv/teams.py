"""Candidate team enumeration and voting consensus.

Team keys follow the compact convention: pools of up to 10 models join the
single-digit member ids directly ("139" is the team {1, 3, 9}); larger
pools hyphenate ("1-3-11"). Soft voting is the default consensus.

enumerate_teams returns a TeamPlan: one (teams, k) int64 member array per
team size, with the team keys and sizes in team order. Scoring and
team_accuracy_table read those arrays in size batches, so a run builds one
plan and no per-team object. They also take a sequence of EnsembleTeams,
which team_plan checks by make_team's rule and turns into a plan once.

There is one vote step: a team's member probability rows are summed in
member order and _vote applies the tie rules. team_accuracy_table runs it
only on the (team, sample) cells a screen does not prove right. The screen
sums, per cell, numbers per member whose totals bound the truth class's
lead over every other class from below: the cell is surely right when they
are above 0. Majority vote counts are integers, so their screen is exact.
Soft-voting sums are floats, so a cell is proven right only when its sum
exceeds _DELTA = 1e-9. A float sum over k members of values in [-1, 1] is
off by less than k * k * 1.2e-16 (3e-14 for 16 members), both in the
screen and in the exact vote's class sums, so a proven cell is never a
near-tie and the exact vote cannot disagree with it, the lowest-index tie
rule included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

SOFT = "soft-voting"
MAJORITY = "majority-voting"

_METHOD_ALIASES = {
    "soft": SOFT,
    "soft-voting": SOFT,
    "majority": MAJORITY,
    "majority-voting": MAJORITY,
}


def normalize_method(method):
    try:
        return _METHOD_ALIASES[str(method).lower()]
    except KeyError:
        raise ValueError(f"unknown consensus method: {method!r}") from None


@dataclass(frozen=True)
class EnsembleTeam:
    member_ids: tuple[int, ...]
    team_key: str

    @property
    def size(self):
        return len(self.member_ids)

    def __iter__(self):
        return iter(self.member_ids)


def team_key_for(member_ids, n_models):
    """The key of a team whose member ids, sorted ints, are `member_ids`."""
    return ("" if n_models <= 10 else "-").join(map(str, member_ids))


def _whole(value, name, least=-math.inf, most=math.inf):
    """value as an int: the library's one whole-number rule, for every
    count, size, cap and seed. ValueError naming `name` unless value is an
    int or an np.integer (a bool is not, nor is a float of whole value)
    from least to most."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not least <= value <= most):
        bounds = (f"an integer from {least} to {most}" if most < math.inf
                  else ("a non-negative integer", "a positive integer")[least] if least in (0, 1)
                  else f"an integer >= {least}")
        raise ValueError(f"{name} must be {bounds}, got {value!r}")
    return int(value)


def _member_ids(team, n_models, least=2):
    """The member ids of team, an EnsembleTeam or a sequence of ids, sorted,
    as ints: the library's one member-id check. ValueError on an id that is
    not an integer by _whole's rule, a repeated id, fewer than `least` ids
    or an id outside the pool's n_models."""
    ids = tuple(team)
    try:
        ids = tuple(sorted(_whole(i, "a member id") for i in ids))
    except ValueError:
        raise ValueError(f"team member ids must be integers, got {ids!r}") from None
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate member ids in team")
    if len(ids) < least:
        raise ValueError(f"a team needs at least {least} members")
    if ids[0] < 0 or ids[-1] >= n_models:
        raise ValueError(f"member ids {ids} out of range: outside the pool's {n_models} models")
    return ids


def make_team(team, n_models):
    """A checked EnsembleTeam from an EnsembleTeam or member ids (see _member_ids)."""
    ids = _member_ids(team, n_models)
    return EnsembleTeam(member_ids=ids, team_key=team_key_for(ids, n_models))


def parse_team_key(key):
    """Invert team_key_for: digits for small pools, hyphen-joined otherwise."""
    key = str(key).strip()
    if not key:
        raise ValueError("empty team key")
    parts = key.split("-") if "-" in key else list(key)
    try:
        ids = tuple(sorted(int(p) for p in parts))
    except ValueError:
        raise ValueError(f"malformed team key: {key!r}") from None
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate member ids in team key: {key!r}")
    return ids


def _size_bounds(n_models, min_size, max_size):
    """(n_models, min_size, max_size) as ints by _whole; max_size None is n_models."""
    n_models = _whole(n_models, "n_models", 2)
    min_size = _whole(min_size, "min_size", 2, n_models)
    max_size = n_models if max_size is None else _whole(max_size, "max_size", min_size, n_models)
    return n_models, min_size, max_size


# Teams are handled in batches of one size whose temporaries stay near this
# many bytes, however many teams a call covers.
_BATCH_BYTES = 1 << 20


class TeamPlan:
    """Teams as one (teams, k) int64 member array per size k.

    groups holds (positions, members) pairs: the teams' positions in team
    order and their member ids, one row per team. team_keys and team_sizes
    are in team order. len() counts the teams, and iteration yields each as
    an EnsembleTeam, in team order.
    """

    def __init__(self, n_models, groups, team_keys):
        self.n_models = n_models
        self.groups = groups
        self.team_keys = team_keys
        self.team_sizes = np.empty(len(team_keys), dtype=np.int64)
        for positions, members in groups:
            self.team_sizes[positions] = members.shape[1]

    def __len__(self):
        return len(self.team_keys)

    def __iter__(self):
        rows = dict(chain.from_iterable(zip(p.tolist(), map(tuple, m.tolist()))
                                        for p, m in self.groups))
        return (EnsembleTeam(rows[p], key) for p, key in enumerate(self.team_keys))

    def batches(self, team_bytes):
        """(positions, members) chunks of each size's teams whose
        temporaries stay near _BATCH_BYTES; team_bytes(k) estimates one
        team's share of them."""
        for positions, members in self.groups:
            rows = max(1, _BATCH_BYTES // team_bytes(members.shape[1]))
            for start in range(0, len(positions), rows):
                yield positions[start:start + rows], members[start:start + rows]


def team_plan(teams, n_models):
    """teams as a TeamPlan: a TeamPlan as it is, or a sequence of
    EnsembleTeams in its order. Raises ValueError for a team that is not
    what make_team makes of it, sorted ids and team_key_for's key."""
    if isinstance(teams, TeamPlan):
        if teams.n_models != n_models:
            raise ValueError(f"a plan for {teams.n_models} models on a {n_models}-model pool")
        return teams
    teams = list(teams)
    by_size = {}
    for pos, team in enumerate(teams):
        ids = tuple(team.member_ids)
        try:
            if make_team(ids, n_models) != EnsembleTeam(ids, team.team_key):
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad team {ids} keyed {team.team_key!r}: a team is at least 2 integer ids, "
                f"strictly increasing, each below {n_models}, keyed as team_key_for keys them"
            ) from None
        by_size.setdefault(len(ids), []).append((pos, ids))
    groups = [(np.array([p for p, _ in group], dtype=np.int64),
               np.array([ids for _, ids in group], dtype=np.int64))
              for _, group in sorted(by_size.items())]
    return TeamPlan(n_models, groups, tuple(team.team_key for team in teams))


def enumerate_teams(n_models, min_size=2, max_size=None):
    """All candidate teams in (size, lexicographic) order, as a TeamPlan.

    The plan holds 8 * k bytes of member ids per team of size k, and one
    team key string per team.
    """
    n_models, min_size, max_size = _size_bounds(n_models, min_size, max_size)
    groups, start = [], 0
    for k in range(min_size, max_size + 1):
        count = math.comb(n_models, k)
        members = np.fromiter(chain.from_iterable(combinations(range(n_models), k)),
                              dtype=np.int64, count=count * k).reshape(count, k)
        groups.append((np.arange(start, start + count), members))
        start += count
    keys = tuple(team_key_for(ids, n_models) for _, m in groups for ids in m.tolist())
    return TeamPlan(n_models, groups, keys)


def count_teams(n_models, min_size=2, max_size=None):
    """Number of teams enumerate_teams yields, by formula."""
    n_models, min_size, max_size = _size_bounds(n_models, min_size, max_size)
    return sum(math.comb(n_models, k) for k in range(min_size, max_size + 1))


@dataclass(frozen=True)
class ConsensusResult:
    method: str
    predicted: np.ndarray
    accuracy: float


def _vote(method, total, votes, k):
    """Predicted labels from a team's summed member probabilities (and, for
    majority voting, its per-class vote counts)."""
    if method == SOFT:
        return np.argmax(total / k, axis=1)
    tied = votes == votes.max(axis=1)[:, None]
    return np.argmax(np.where(tied, total, -np.inf), axis=1)


def _exact_votes(pool, method, members, samples):
    """Predicted label of each cell: cell i is the team members[i] voting
    on sample samples[i]. Member probability rows are summed in member
    order, so every cell gets the sums consensus on its team computes."""
    rows = members * pool.n_samples + samples[:, None]  # into (M * N, C) rows
    probs = pool.probs.reshape(-1, pool.n_classes)
    total = probs.take(rows[:, 0], axis=0)
    for column in rows.T[1:]:
        total += probs.take(column, axis=0)
    votes = None
    if method == MAJORITY:
        labels = pool.predicted_labels().reshape(-1)
        offsets = np.arange(0, total.size, pool.n_classes)
        votes = np.zeros(total.shape, dtype=np.int64)
        for column in rows.T:
            votes.reshape(-1)[offsets + labels.take(column)] += 1
    return _vote(method, total, votes, members.shape[1])


def consensus(pool, team, method=SOFT):
    """Fuse the team's members by soft or majority voting.

    Soft voting averages the member probability vectors and predicts the
    argmax class. Majority voting takes the plurality of member argmax
    votes; vote ties break by the highest summed member probability among
    the tied classes. Remaining argmax ties resolve to the lowest class
    index. The output is independent of member ordering. team is an
    EnsembleTeam or a sequence of member ids, checked as make_team checks
    it.
    """
    method = normalize_method(method)
    members = np.array(make_team(team, pool.n_models).member_ids, dtype=np.int64)
    samples = np.arange(pool.n_samples)
    predicted = _exact_votes(
        pool, method, np.broadcast_to(members, (samples.size, members.size)), samples
    )
    predicted.setflags(write=False)
    accuracy = float(np.mean(predicted == pool.truth))
    return ConsensusResult(method=method, predicted=predicted, accuracy=accuracy)


# How far a soft-voting screen sum must clear 0 (see the module docstring).
_DELTA = 1e-9


def _rival(scores, truth):
    """Per sample, the wrong class with the highest score (scores is
    overwritten)."""
    scores[np.arange(truth.size), truth] = -np.inf
    return scores.argmax(axis=1)


def _screen_rows(pool, method):
    """Per-model rows whose sums over a team screen its cells.

    Soft voting: (M, N), the margin p[truth] - max over wrong classes of p,
    each row built from one model's (N, C) block, never from a copy of the
    whole pool. Majority voting: (M, 2N), with t and r the 0/1 votes for
    the truth and for the rival, the wrong class with the most votes over
    the pool: t - r, then 2t + r.
    """
    truth, n = pool.truth, pool.n_samples
    cells = np.arange(n)
    if method == MAJORITY:
        labels = pool.predicted_labels()
        counts = np.zeros((n, pool.n_classes))
        for row in labels:
            counts[cells, row] += 1
        t = (labels == truth).astype(np.float64)
        r = (labels == _rival(counts, truth)).astype(np.float64)
        return np.concatenate([t - r, 2 * t + r], axis=1)
    rows = np.empty((pool.n_models, n))
    for m, probs in enumerate(pool.probs):
        wrong = probs.copy()
        wrong[cells, truth] = -np.inf
        rows[m] = probs[cells, truth] - wrong.max(axis=1)
    return rows


def _screen_batch(rows, batch, method):
    """Screen one batch of teams of one size with _screen_rows: per team,
    the count of cells surely right, and the (team, sample) indices of the
    other cells."""
    t, k = batch.shape
    held = np.zeros((t, len(rows)))
    held[np.arange(t)[:, None], batch] = 1.0
    # A BLAS product, but it only picks the cells voted exactly (see _DELTA).
    sums = held @ rows
    if method == SOFT:
        right = sums > _DELTA
    else:
        n = sums.shape[1] // 2
        right = (sums[:, :n] > 0) & (sums[:, n:] > k)
    return right.sum(axis=1), np.nonzero(~right)


def team_accuracy_table(pool, teams, method=SOFT):
    """Consensus accuracy of every team, as one float64 array in the order
    of teams: a TeamPlan or a sequence of EnsembleTeams (see team_plan).

    Each accuracy equals consensus on its team. Teams go in batches of one
    size; a batch's 0/1 member matrix H times the screen rows gives sums
    per (team, sample) cell that prove most cells right outright:

    - soft voting: the summed margins exceed _DELTA. The threshold is far
      above the rounding of these sums and of the exact vote's class sums,
      so no exact vote could decide such a cell otherwise;
    - majority voting: with tv votes for the truth and rv for the rival,
      tv > rv and tv > k - tv - rv (the truth out-polls every other class).
      The sums are the exact counts tv - rv and 2 tv + rv.

    Every other cell gets the exact vote consensus computes, its members'
    probability rows summed in member order and the same tie rules.
    """
    plan = team_plan(teams, pool.n_models)
    if not len(plan):
        raise ValueError("team_accuracy_table needs at least one team")
    method = normalize_method(method)
    n = pool.n_samples
    rows = _screen_rows(pool, method)
    correct = np.zeros(len(plan), dtype=np.int64)
    # Per exactly voted cell: at most five (C,) arrays of 8-byte values.
    cells_per_piece = max(1, _BATCH_BYTES // (40 * pool.n_classes))
    # Per team and sample: at most two float64 sums and eight bytes of masks.
    for positions, batch in plan.batches(lambda k: 24 * n):
        # The batch's sums are freed before its open cells are voted.
        hits, (team, sample) = _screen_batch(rows, batch, method)
        for start in range(0, team.size, cells_per_piece):
            piece = slice(start, start + cells_per_piece)
            predicted = _exact_votes(pool, method, batch[team[piece]], sample[piece])
            ok = predicted == pool.truth[sample[piece]]
            hits += np.bincount(team[piece][ok], minlength=len(batch))
        correct[positions] = hits
    return correct / n
