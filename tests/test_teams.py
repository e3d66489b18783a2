import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from _pools import make_cm, pool_from_probs, random_pool, score_column
from sqdiv.analytics import correlation_report, sweep
from sqdiv.pool import correctness
from sqdiv.qmetrics import negative_samples
from sqdiv.scoring import ScoreConfig
from sqdiv.selection import rank_teams, select_and_evaluate
from sqdiv.synth import contiguous_groups, default_spec, generate
from sqdiv.teams import (
    MAJORITY,
    SOFT,
    EnsembleTeam,
    consensus,
    count_teams,
    enumerate_teams,
    make_team,
    parse_team_key,
    team_accuracy_table,
)


def test_team_key_conventions():
    assert make_team([9, 3, 1], 10).team_key == "139"
    assert make_team([11, 3, 0], 12).team_key == "0-3-11"
    assert parse_team_key("139") == (1, 3, 9)
    assert parse_team_key("0-3-11") == (0, 3, 11)


def test_make_team_validation():
    with pytest.raises(ValueError, match="duplicate"):
        make_team([1, 1, 2], 5)
    with pytest.raises(ValueError, match="at least 2"):
        make_team([1], 5)
    with pytest.raises(ValueError, match="outside"):
        make_team([1, 7], 5)
    with pytest.raises(ValueError, match="malformed"):
        parse_team_key("1-x")
    with pytest.raises(ValueError, match="^empty team key$"):
        parse_team_key("")
    with pytest.raises(ValueError, match="^duplicate member ids in team key: '1-1'$"):
        parse_team_key("1-1")


@pytest.mark.parametrize("ids", [
    [0, 1.9], [True, 2], ["0", "2"], [0, np.bool_(True)], [0.0, 2],
], ids=["float", "bool", "str", "numpy-bool", "integral-float"])
def test_make_team_rejects_non_integer_ids(ids):
    with pytest.raises(ValueError, match="integers"):
        make_team(ids, 4)


def test_make_team_accepts_numpy_integers():
    team = make_team(np.array([3, 0], dtype=np.int32), 4)
    assert team.member_ids == (0, 3) and all(type(i) is int for i in team.member_ids)


def test_enumeration_counts():
    assert count_teams(4) == 11
    assert count_teams(10) == 1013
    for n, lo, hi in ((2, 2, 2), (5, 2, None), (6, 3, 4), (7, 7, 7), (9, 2, 3), (12, 5, 8)):
        assert count_teams(n, lo, hi) == len(list(enumerate_teams(n, lo, hi))), (n, lo, hi)
    with pytest.raises(ValueError):
        count_teams(4, min_size=3, max_size=2)
    teams = list(enumerate_teams(2))
    assert [t.team_key for t in teams] == ["01"]


def test_enumeration_order_and_bounds():
    keys = [t.team_key for t in enumerate_teams(4)]
    assert keys[:6] == ["01", "02", "03", "12", "13", "23"]
    assert keys[6:10] == ["012", "013", "023", "123"]
    assert keys[10] == "0123"
    sizes = [t.size for t in enumerate_teams(5, min_size=3, max_size=4)]
    assert set(sizes) == {3, 4}
    with pytest.raises(ValueError):
        list(enumerate_teams(4, min_size=1))
    with pytest.raises(ValueError):
        list(enumerate_teams(4, min_size=3, max_size=2))
    with pytest.raises(ValueError):
        list(enumerate_teams(4, max_size=5))


@pytest.mark.parametrize("m", [6, 12])
def test_enumeration_matches_bitmask_sweep(m):
    expected = set()
    for mask in range(1, 2 ** m):
        ids = tuple(i for i in range(m) if mask >> i & 1)
        if len(ids) >= 2:
            expected.add(ids)
    got = {t.member_ids for t in enumerate_teams(m)}
    assert got == expected


def test_soft_vote_example():
    pool = pool_from_probs(
        [[(0.6, 0.4)], [(0.2, 0.8)]],
        truth=[1],
    )
    result = consensus(pool, make_team([0, 1], 2), SOFT)
    assert result.predicted.tolist() == [1]
    assert result.accuracy == 1.0
    assert result.method == SOFT


def test_soft_vote_clone_team_equals_single_model():
    pool = random_pool(3, 4, 40, 3)
    probs = np.array(pool.probs)
    probs[1] = probs[0]
    probs[2] = probs[0]
    clones = pool_from_probs(probs, pool.truth)
    team = consensus(clones, make_team([0, 1, 2], 4), SOFT)
    solo = np.argmax(clones.probs[0], axis=1)
    assert np.array_equal(team.predicted, solo)


def test_majority_vote_plurality():
    # votes (A, B, A) -> A
    pool = pool_from_probs(
        [[(0.9, 0.1)], [(0.2, 0.8)], [(0.7, 0.3)]],
        truth=[0],
    )
    result = consensus(pool, make_team([0, 1, 2], 3), MAJORITY)
    assert result.predicted.tolist() == [0]
    assert result.method == MAJORITY


def test_majority_vote_tie_breaks_on_summed_probability():
    # votes (A, B); summed probability A: 1.1, B: 0.9 -> A
    pool = pool_from_probs(
        [[(0.7, 0.3)], [(0.4, 0.6)]],
        truth=[0],
    )
    result = consensus(pool, make_team([0, 1], 2), MAJORITY)
    assert result.predicted.tolist() == [0]
    # flip the confidence balance -> B
    pool2 = pool_from_probs(
        [[(0.6, 0.4)], [(0.1, 0.9)]],
        truth=[0],
    )
    assert consensus(pool2, make_team([0, 1], 2), MAJORITY).predicted.tolist() == [1]


def test_majority_vote_final_tie_lowest_class():
    pool = pool_from_probs(
        [[(0.6, 0.4, 0.0)], [(0.4, 0.6, 0.0)]],
        truth=[2],
    )
    result = consensus(pool, make_team([0, 1], 2), MAJORITY)
    assert result.predicted.tolist() == [0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_votes_match_reference(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    pool = random_pool(seed, m, int(rng.integers(3, 25)), int(rng.integers(2, 5)))
    size = int(rng.integers(2, m + 1))
    members = sorted(rng.choice(m, size=size, replace=False).tolist())
    team = make_team(members, m)
    assert consensus(pool, team, SOFT).predicted.tolist() == ref.soft_vote_labels(
        pool.probs, members
    )
    assert consensus(pool, team, MAJORITY).predicted.tolist() == ref.majority_vote_labels(
        pool.probs, members
    )


def test_member_order_invariance():
    pool = random_pool(11, 5, 30, 4)
    a = make_team([4, 1, 2], 5)
    b = make_team([2, 4, 1], 5)
    assert np.array_equal(consensus(pool, a, SOFT).predicted, consensus(pool, b, SOFT).predicted)
    assert np.array_equal(
        consensus(pool, a, MAJORITY).predicted, consensus(pool, b, MAJORITY).predicted
    )


def test_soft_vote_rescale_invariance():
    rng = np.random.default_rng(21)
    raw = rng.random((3, 25, 4)) + 1e-3
    base = pool_from_probs(raw / raw.sum(axis=2, keepdims=True), rng.integers(0, 4, 25))
    scaled_raw = raw * 3.7
    scaled = pool_from_probs(
        scaled_raw / scaled_raw.sum(axis=2, keepdims=True), base.truth
    )
    team = make_team([0, 1, 2], 3)
    assert np.array_equal(
        consensus(base, team, SOFT).predicted, consensus(scaled, team, SOFT).predicted
    )


def test_team_accuracy_table():
    pool = random_pool(15, 4, 30, 3)
    teams = list(enumerate_teams(4, max_size=3))
    table = team_accuracy_table(pool, teams, method="soft")
    assert table.shape == (len(teams),)
    for team, accuracy in zip(teams, table):
        expected = np.mean(
            np.asarray(ref.soft_vote_labels(pool.probs, list(team.member_ids)))
            == pool.truth
        )
        assert accuracy == pytest.approx(float(expected), abs=0)
    # Any order, a team repeated: one accuracy per position, in that order.
    shuffled = [teams[i] for i in (7, 2, 9, 0, 2, 5)]
    table = team_accuracy_table(pool, shuffled, method="soft")
    assert table.tolist() == [consensus(pool, team).accuracy for team in shuffled]
    assert table[1] == table[4]
    with pytest.raises(ValueError):
        team_accuracy_table(pool, [], method="soft")
    with pytest.raises(ValueError, match="consensus"):
        team_accuracy_table(pool, teams, method="quantum")


def test_clone_team_accuracy_equals_model_accuracy():
    pool = random_pool(8, 3, 50, 3)
    probs = np.array(pool.probs)
    probs[1] = probs[0]
    probs[2] = probs[0]
    clones = pool_from_probs(probs, pool.truth)
    solo_acc = float(np.mean(np.argmax(clones.probs[0], axis=1) == clones.truth))
    table = team_accuracy_table(clones, [make_team([0, 1, 2], 3)])
    assert table[0] == pytest.approx(solo_acc, abs=0)


@pytest.mark.parametrize("team, message", [
    ((-1, 0), "outside the pool"),
    ((0, 9), "outside the pool"),
    ((0,), "at least 2"),
    ((0, 0, 1), "duplicate"),
], ids=["negative-id", "id-past-pool", "one-member", "repeated-member"])
def test_consensus_rejects_bad_teams(team, message):
    """consensus checks its team as make_team does, for member ids and for
    an EnsembleTeam built without make_team."""
    pool = generate(default_spec(n_models=4, n_samples=50, n_classes=3, seed=1))
    for method in (SOFT, MAJORITY):
        with pytest.raises(ValueError, match=message):
            consensus(pool, team, method)
        with pytest.raises(ValueError, match=message):
            consensus(pool, EnsembleTeam(member_ids=team, team_key="x"), method)


_SPEC = default_spec(n_models=4, n_samples=40, n_classes=3, n_groups=2, seed=1)
_POOL = generate(_SPEC)
_CM = correctness(_POOL)
_COLUMN = score_column({"01": 0.5, "02": 0.25, "12": 0.75}, "BD")

# Every whole-number argument of the library: (call taking the value, the
# name its refusal gives, its least valid value, its greatest or None, a
# valid value).
WHOLE_NUMBERS = {
    "ScoreConfig-negative_cap": (lambda v: ScoreConfig(negative_cap=v), "negative_cap", 1, None, 3),
    "ScoreConfig-seed": (lambda v: ScoreConfig(seed=v), "seed", 0, None, 3),
    "negative_samples-cap": (lambda v: negative_samples(_CM, (0, 1, 2), cap=v), "cap", 1, None, 3),
    "negative_samples-seed": (lambda v: negative_samples(_CM, (0, 1, 2), seed=v, cap=3),
                              "seed", 0, None, 3),
    **{f"SynthSpec-{name}": ((lambda v, name=name: dataclasses.replace(_SPEC, **{name: v})),
                             name, least, None, valid)
       for name, least, valid in (("n_models", 2, 4), ("n_samples", 1, 40),
                                  ("n_classes", 2, 3), ("seed", 0, 1))},
    "contiguous_groups-n_groups": (lambda v: contiguous_groups(4, v), "n_groups", 1, 4, 2),
    "enumerate_teams-n_models": (lambda v: enumerate_teams(v).team_keys, "n_models", 2, None, 4),
    "enumerate_teams-min_size": (lambda v: enumerate_teams(4, v).team_keys, "min_size", 2, 4, 3),
    "enumerate_teams-max_size": (lambda v: enumerate_teams(4, 3, v).team_keys,
                                 "max_size", 3, 4, 3),
    "count_teams-n_models": (lambda v: count_teams(v), "n_models", 2, None, 5),
    "count_teams-max_size": (lambda v: count_teams(4, 2, v), "max_size", 2, 4, 3),
    "sweep-min_size": (lambda v: sweep(_POOL, _CM, ["BD"], min_size=v).team_keys,
                       "min_size", 2, 4, 3),
    "correlation_report-max_size": (lambda v: correlation_report(_POOL, _CM, ["KW"], max_size=v),
                                    "max_size", 2, 4, 3),
    "rank_teams-k": (lambda v: rank_teams(_COLUMN, v), "k", 1, None, 2),
    "select_and_evaluate-k": (lambda v: select_and_evaluate(_POOL, _CM, "BD", k=v).rows,
                              "k", 1, None, 2),
}


@pytest.mark.parametrize("case", WHOLE_NUMBERS)
def test_every_whole_number_argument_has_one_rule(case):
    """Every count, size, cap and seed is an int or an np.integer, never a
    bool or a float of whole value, within its bounds; a refusal is one
    ValueError naming the argument, and an np.int64 acts as the equal int."""
    call, name, least, most, valid = WHOLE_NUMBERS[case]
    bad = [2.5, np.float64(2.0), True, np.bool_(True), "2", least - 1]
    for value in bad + ([] if most is None else [most + 1]):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(value)
    assert call(np.int64(valid)) == call(valid)
