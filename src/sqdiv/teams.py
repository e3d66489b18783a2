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


def _members(team):
    return tuple(sorted(set(int(i) for i in getattr(team, "member_ids", team))))


def _vote(method, total, votes, k):
    """Predicted labels from a team's summed member probabilities (and, for
    majority voting, its per-class vote counts)."""
    if method == SOFT:
        return np.argmax(total / k, axis=1)
    tied = votes == votes.max(axis=1)[:, None]
    return np.argmax(np.where(tied, total, -np.inf), axis=1)


def _walk(pool, member_sets, method):
    """Yield (members, predicted labels) for each distinct sorted member
    tuple, in lexicographic order.

    The walk keeps one running probability sum (and vote count) per depth of
    the current member path, so a team costs one N x C add on top of its
    longest prefix already on the path. Member probabilities are added in
    member order, so the sums equal those of summing the members' rows one
    after another.
    """
    labels = pool.predicted_labels() if method == MAJORITY else None
    rows = np.arange(pool.n_samples)
    path = []  # (member, probability sum, vote counts) per depth
    for ids in sorted(set(member_sets)):
        depth = 0
        while depth < min(len(path), len(ids)) and path[depth][0] == ids[depth]:
            depth += 1
        del path[depth:]
        for m in ids[depth:]:
            total = path[-1][1] + pool.probs[m] if path else pool.probs[m]
            votes = None
            if labels is not None:
                votes = path[-1][2].copy() if path else np.zeros(
                    (pool.n_samples, pool.n_classes), dtype=np.int64)
                votes[rows, labels[m]] += 1
            path.append((m, total, votes))
        yield ids, _vote(method, path[-1][1], path[-1][2], len(ids))


def consensus(pool, team, method=SOFT):
    """Fuse the team's members by soft or majority voting.

    Soft voting averages the member probability vectors and predicts the
    argmax class. Majority voting takes the plurality of member argmax
    votes; vote ties break by the highest summed member probability among
    the tied classes. Remaining argmax ties resolve to the lowest class
    index. The output is independent of member ordering.
    """
    method = normalize_method(method)
    [(_, predicted)] = _walk(pool, [_members(team)], method)
    predicted.setflags(write=False)
    accuracy = float(np.mean(predicted == pool.truth))
    return ConsensusResult(method=method, predicted=predicted, accuracy=accuracy)


def soft_vote(pool, team):
    """Average member probability vectors, predict the argmax class."""
    return consensus(pool, team, SOFT)


def majority_vote(pool, team):
    """Plurality over member argmax votes (see consensus for tie-breaks)."""
    return consensus(pool, team, MAJORITY)


def team_accuracy_table(pool, teams, method=SOFT):
    """Consensus accuracy for every team, keyed by team_key.

    One walk over the teams' member tuples shares each prefix's running sums
    among all teams that extend it; the accuracies equal consensus on each
    team.
    """
    teams = list(teams)
    if not teams:
        raise ValueError("team_accuracy_table needs at least one team")
    method = normalize_method(method)
    members = [_members(team) for team in teams]
    accuracy = {
        ids: float(np.mean(predicted == pool.truth))
        for ids, predicted in _walk(pool, members, method)
    }
    return {team.team_key: accuracy[ids] for team, ids in zip(teams, members)}
