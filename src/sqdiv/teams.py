"""Candidate team enumeration and voting consensus.

Team keys follow the compact convention: pools of up to 10 models join the
single-digit member ids directly ("139" is the team {1, 3, 9}); larger
pools hyphenate ("1-3-11"). Soft voting is the default consensus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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
    ids = sorted(int(i) for i in member_ids)
    if n_models <= 10:
        return "".join(str(i) for i in ids)
    return "-".join(str(i) for i in ids)


def make_team(member_ids, n_models):
    ids = tuple(sorted(int(i) for i in member_ids))
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate member ids in team")
    if len(ids) < 2:
        raise ValueError("a team needs at least 2 members")
    if ids[0] < 0 or ids[-1] >= n_models:
        raise ValueError("team member outside the pool")
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
    if max_size is None:
        max_size = n_models
    if not 2 <= min_size <= max_size <= n_models:
        raise ValueError(
            f"need 2 <= min_size <= max_size <= n_models, got "
            f"min_size={min_size} max_size={max_size} n_models={n_models}"
        )
    return min_size, max_size


def enumerate_teams(n_models, min_size=2, max_size=None):
    """Yield all candidate teams in (size, lexicographic) order.

    Streaming so large pools never materialize the full candidate set.
    """
    min_size, max_size = _size_bounds(n_models, min_size, max_size)
    for size in range(min_size, max_size + 1):
        for ids in combinations(range(n_models), size):
            yield EnsembleTeam(member_ids=ids, team_key=team_key_for(ids, n_models))


def count_teams(n_models, min_size=2, max_size=None):
    """Number of teams enumerate_teams yields, by formula."""
    min_size, max_size = _size_bounds(n_models, min_size, max_size)
    return sum(math.comb(n_models, k) for k in range(min_size, max_size + 1))


@dataclass(frozen=True)
class ConsensusResult:
    method: str
    predicted: np.ndarray
    accuracy: float


def soft_vote(pool, team):
    """Average member probability vectors, predict the argmax class.

    Argmax ties resolve to the lowest class index. Output is independent of
    member ordering.
    """
    members = sorted(set(int(i) for i in getattr(team, "member_ids", team)))
    avg = pool.probs[members].mean(axis=0)
    predicted = np.argmax(avg, axis=1)
    predicted.setflags(write=False)
    accuracy = float(np.mean(predicted == pool.truth))
    return ConsensusResult(method=SOFT, predicted=predicted, accuracy=accuracy)


def majority_vote(pool, team):
    """Plurality over member argmax votes.

    Vote ties break by the highest summed member probability among the tied
    classes, then by the lowest class index.
    """
    members = sorted(set(int(i) for i in getattr(team, "member_ids", team)))
    votes = pool.predicted_labels()[members]
    n, c = pool.n_samples, pool.n_classes
    counts = np.zeros((n, c), dtype=np.int64)
    rows = np.arange(n)
    for row in votes:
        counts[rows, row] += 1
    top = counts.max(axis=1)
    tied = counts == top[:, None]
    summed = pool.probs[members].sum(axis=0)
    score = np.where(tied, summed, -np.inf)
    predicted = np.argmax(score, axis=1)
    predicted.setflags(write=False)
    accuracy = float(np.mean(predicted == pool.truth))
    return ConsensusResult(method=MAJORITY, predicted=predicted, accuracy=accuracy)


def consensus(pool, team, method=SOFT):
    method = normalize_method(method)
    if method == SOFT:
        return soft_vote(pool, team)
    return majority_vote(pool, team)


def team_accuracy_table(pool, teams, method=SOFT):
    """Consensus accuracy for every team, keyed by team_key."""
    teams = list(teams)
    if not teams:
        raise ValueError("team_accuracy_table needs at least one team")
    return {team.team_key: consensus(pool, team, method).accuracy for team in teams}
