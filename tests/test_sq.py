import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from _pools import pool_from_labels, pool_from_probs, random_pool
from sqdiv.pool import correctness
from sqdiv.qmetrics import FOCAL_ERRS, kappa, negative_samples
from sqdiv.scoring import ScoreConfig, score_team
from sqdiv.teams import make_team


@pytest.fixture
def triad_pool():
    """Focal model 0 wrong everywhere; model 1 right on 3 of its 4 negatives,
    model 2 right on 1."""
    labels = [
        (3, 3, 3, 3),  # focal: always class 3
        (0, 1, 0, 3),  # right on s0, s1, s2
        (3, 3, 3, 2),  # right on s3 only
    ]
    return pool_from_labels(labels, truth=(0, 1, 0, 2), n_classes=4)


def focal_terms(pool, team, focal):
    """The focal's FocalResult in the team's SQ breakdown."""
    detail = score_team(pool, correctness(pool), team, "SQ").detail
    return {f.focal_id: f for f in detail.per_focal}[focal]


def test_sq_epsilon_example(triad_pool):
    focal = focal_terms(triad_pool, make_team([0, 1, 2], 3), 0)
    assert focal.negative_count == 4
    assert focal.sq_epsilon == pytest.approx(0.5, abs=1e-12)


def test_sq_epsilon_clones_zero():
    labels = [(1, 1, 1), (1, 1, 1), (1, 1, 1)]
    pool = pool_from_labels(labels, truth=(0, 0, 0), n_classes=3)
    assert focal_terms(pool, make_team([0, 1, 2], 3), 0).sq_epsilon == 0.0


def test_sq_epsilon_perfect_correctors_one():
    labels = [(1, 1), (0, 2), (0, 2)]
    pool = pool_from_labels(labels, truth=(0, 2), n_classes=3)
    assert focal_terms(pool, make_team([0, 1, 2], 3), 0).sq_epsilon == 1.0


def test_sq_alpha_example():
    # non-focal labels over four negatives: (a,b,a,c) vs (a,b,c,c)
    labels = [
        (0, 0, 0, 0),  # focal, wrong everywhere (truth is class 3)
        (0, 1, 0, 2),
        (0, 1, 2, 2),
    ]
    pool = pool_from_labels(labels, truth=(3, 3, 3, 3), n_classes=4)
    focal = focal_terms(pool, make_team([0, 1, 2], 3), 0)
    assert focal.sq_alpha == pytest.approx(7 / 11, abs=1e-12)


def test_sq_alpha_identical_labels_one(triad_pool):
    labels = [(2, 2, 2), (0, 1, 0), (0, 1, 0)]
    pool = pool_from_labels(labels, truth=(1, 0, 1), n_classes=3)
    assert focal_terms(pool, make_team([0, 1, 2], 3), 0).sq_alpha == 1.0


def test_sq_alpha_pair_team_zero(triad_pool):
    assert focal_terms(triad_pool, make_team([0, 1], 3), 0).sq_alpha == 0.0


def test_kappa_of_constant_raters():
    """Two raters constant on one class over 5 samples agree on all 5, and
    chance = 5 * 5 = n^2: kappa 1. Constant on different classes, they agree
    nowhere, as chance (0) predicts: kappa 0."""
    assert kappa(5, 25, 5) == 1.0
    assert kappa(0, 0, 5) == 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 60), n_classes=st.integers(1, 6))
def test_kappa_equals_reference(seed, n, n_classes):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_classes, size=n)
    b = np.where(rng.random(n) < 0.5, a, rng.integers(0, n_classes, size=n))
    chance = np.bincount(a, minlength=n_classes) @ np.bincount(b, minlength=n_classes)
    expected = ref.multiclass_kappa(a.tolist(), b.tolist(), n_classes)
    assert float(kappa(np.count_nonzero(a == b), chance, n)) == pytest.approx(expected, abs=1e-12)


def test_sq_score_frozen_breakdown(triad_pool):
    cm = correctness(triad_pool)
    team = make_team([0, 1, 2], 3)
    breakdown = score_team(triad_pool, cm, team, "SQ").detail
    by_focal = {f.focal_id: f for f in breakdown.per_focal}
    assert set(by_focal) == {0, 1, 2}
    assert breakdown.skipped_focals == frozenset()
    assert not breakdown.all_skipped

    assert by_focal[0].negative_count == 4
    assert by_focal[0].sq_epsilon == pytest.approx(0.5, abs=1e-12)
    assert by_focal[0].sq_alpha == pytest.approx(-3 / 13, abs=1e-12)
    assert by_focal[0].combined == pytest.approx(7 / 26, abs=1e-12)

    assert by_focal[1].negative_count == 1
    assert by_focal[1].combined == pytest.approx(0.5, abs=1e-12)
    assert by_focal[2].negative_count == 3
    assert by_focal[2].combined == pytest.approx(0.5, abs=1e-12)

    assert breakdown.aggregate == pytest.approx(11 / 26, abs=1e-12)


def test_sq_score_zero_alpha_weight(triad_pool):
    cm = correctness(triad_pool)
    team = make_team([0, 1, 2], 3)
    breakdown = score_team(triad_pool, cm, team, "SQ", ScoreConfig(w_alpha=0.0)).detail
    expected = np.mean([f.sq_epsilon for f in breakdown.per_focal])
    assert breakdown.aggregate == pytest.approx(expected, abs=1e-12)


def test_sq_score_perfect_team_all_skipped():
    labels = [(0, 1), (0, 1), (0, 1)]
    pool = pool_from_labels(labels, truth=(0, 1), n_classes=2)
    cm = correctness(pool)
    breakdown = score_team(pool, cm, make_team([0, 1, 2], 3), "SQ").detail
    assert breakdown.all_skipped
    assert breakdown.aggregate == 0.0
    assert breakdown.skipped_focals == frozenset({0, 1, 2})


def test_sq_score_partial_skip():
    # model 1 is perfect and takes no focal turn; models 0, 2 do
    labels = [(2, 1), (0, 1), (0, 2)]
    pool = pool_from_labels(labels, truth=(0, 1), n_classes=3)
    cm = correctness(pool)
    breakdown = score_team(pool, cm, make_team([0, 1, 2], 3), "SQ").detail
    assert breakdown.skipped_focals == frozenset({1})
    assert {f.focal_id for f in breakdown.per_focal} == {0, 2}


def test_sq_score_rejects_small_team(triad_pool):
    cm = correctness(triad_pool)
    with pytest.raises(ValueError, match="at least 2"):
        score_team(triad_pool, cm, (0,), "SQ")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sq_epsilon_identity(seed):
    """Pairwise-disagreement form equals mean non-focal accuracy on the
    focal negatives, since the focal is wrong on all of them."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    pool = random_pool(seed, m, int(rng.integers(5, 40)), int(rng.integers(2, 5)))
    cm = correctness(pool)
    team = make_team(range(m), m)
    focal = int(rng.integers(0, m))
    neg = negative_samples(cm, team, mode=FOCAL_ERRS, focal_id=focal)
    if len(neg) == 0:
        return
    idx = list(neg.sample_indices)
    others = [i for i in range(m) if i != focal]
    direct = float(np.mean([cm.bits[i][idx].mean() for i in others]))
    assert focal_terms(pool, team, focal).sq_epsilon == pytest.approx(direct, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), w_eps=st.floats(0, 2), w_alpha=st.floats(0, 2))
def test_sq_aggregate_range(seed, w_eps, w_alpha):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    pool = random_pool(seed, m, int(rng.integers(3, 30)), int(rng.integers(2, 5)))
    cm = correctness(pool)
    breakdown = score_team(pool, cm, make_team(range(m), m), "SQ",
                           ScoreConfig(w_epsilon=w_eps, w_alpha=w_alpha)).detail
    assert -w_alpha - 1e-12 <= breakdown.aggregate <= w_eps + w_alpha + 1e-12


@pytest.mark.parametrize("weights", [
    {"w_epsilon": float("nan")}, {"w_alpha": float("inf")}, {"w_epsilon": -float("inf")},
    {"w_alpha": -0.5},
], ids=["nan", "inf", "-inf", "negative"])
def test_score_config_rejects_non_finite_or_negative_weights(weights):
    with pytest.raises(ValueError, match="weights must be finite and non-negative"):
        ScoreConfig(**weights)


def test_score_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        ScoreConfig(seed=-1)
    assert ScoreConfig(seed=0).seed == 0


def test_sq_score_deterministic_and_order_invariant():
    pool = random_pool(42, 4, 25, 3)
    cm = correctness(pool)
    a = score_team(pool, cm, make_team([2, 0, 3], 4), "SQ").detail
    b = score_team(pool, cm, make_team([3, 2, 0], 4), "SQ").detail
    assert a == b
    assert a.aggregate == b.aggregate


def test_sq_matches_reference_on_random_pools():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        pool = random_pool(seed + 1000, m, int(rng.integers(4, 30)), int(rng.integers(2, 5)))
        cm = correctness(pool)
        team = make_team(range(m), m)
        breakdown = score_team(pool, cm, team, "SQ").detail
        evaluated, skipped, aggregate = ref.sq_breakdown(
            pool.predicted_labels(), cm.bits, list(team.member_ids), pool.n_classes
        )
        assert breakdown.skipped_focals == frozenset(skipped)
        assert breakdown.aggregate == pytest.approx(aggregate, abs=1e-12)
        for f in breakdown.per_focal:
            count, eps, alpha, combined = evaluated[f.focal_id]
            assert f.negative_count == count
            assert f.sq_epsilon == pytest.approx(eps, abs=1e-12)
            assert f.sq_alpha == pytest.approx(alpha, abs=1e-12)


def test_sq_alpha_on_correctness_switch():
    pool = random_pool(5, 3, 30, 3)
    cm = correctness(pool)
    team = make_team([0, 1, 2], 3)
    on_labels = score_team(pool, cm, team, "SQ", ScoreConfig(alpha_on_labels=True)).detail
    on_bits = score_team(pool, cm, team, "SQ", ScoreConfig(alpha_on_labels=False)).detail
    _, _, expected = ref.sq_breakdown(
        pool.predicted_labels(), cm.bits, [0, 1, 2], pool.n_classes,
        alpha_on_labels=False,
    )
    assert on_bits.aggregate == pytest.approx(expected, abs=1e-12)
    assert on_bits.aggregate != on_labels.aggregate


def test_negative_cap_respected_and_deterministic():
    pool = random_pool(9, 3, 300, 3)
    cm = correctness(pool)
    team = make_team([0, 1, 2], 3)
    capped = score_team(pool, cm, team, "SQ", ScoreConfig(negative_cap=10, seed=4)).detail
    again = score_team(pool, cm, team, "SQ", ScoreConfig(negative_cap=10, seed=4)).detail
    assert capped == again
    assert all(f.negative_count <= 10 for f in capped.per_focal)


def test_monotone_synergy_flip():
    """Making every non-focal strictly more accurate on the focal's failures
    never lowers the aggregate."""
    for seed in (0, 7, 19, 101, 555):
        pool = random_pool(seed, 4, 30, 3)
        cm = correctness(pool)
        team = make_team([0, 1, 2], 4)
        base = score_team(pool, cm, team, "SQ").detail.aggregate
        probs = np.array(pool.probs)
        fails = np.flatnonzero(~cm.bits[0])
        for member in (1, 2):
            for j in fails:
                row = np.full(pool.n_classes, 0.1)
                row[pool.truth[j]] = 0.8
                probs[member, j] = row / row.sum()
        improved = pool_from_probs(probs, pool.truth)
        after = score_team(improved, correctness(improved), team, "SQ").detail.aggregate
        assert after >= base - 1e-12
