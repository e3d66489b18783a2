"""The batched team sweep against the per-team paths and the naive oracles.

score_teams scores teams in batches of one size: the classical metrics from
the pool's correctness Gram matrix, SQ by gathering from per-focal count
tables. Each score must equal the per-team computation exactly
(classical_scores on the team's own slice of the correctness rows; for SQ,
the mean share of each focal's negative set a non-focal member gets right
and the mean multiclass_kappa of the non-focal pairs on that set) and the
oracles in tests/_reference.py at 1e-12. team_accuracy_table decides most
(team, sample) cells from two per-team sums and votes the rest exactly;
every accuracy must equal consensus on the team and the reference votes
exactly, near-ties and vote-count ties included.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from _pools import pool_from_labels, pool_from_probs, random_pool
from sqdiv.pool import correctness
from sqdiv.qmetrics import FOCAL_ERRS, UndefinedDiversityError, classical_scores, negative_samples
from sqdiv.scoring import ScoreConfig, score_team, score_teams
from sqdiv.sq import multiclass_kappa
from sqdiv import teams as teams_module
from sqdiv.synth import default_spec, generate
from sqdiv.teams import MAJORITY, SOFT, consensus, enumerate_teams, team_accuracy_table

CLASSICAL = {
    "CK": ref.ck_diversity,
    "QS": ref.q_statistic,
    "BD": ref.binary_disagreement,
    "GD": ref.generalized_diversity,
    "KW": ref.kohavi_wolpert,
}

# Rows rewritten after the random draw: each makes a degenerate member.
CLONE, COMPLEMENT, ALL_CORRECT = "clone", "complement", "all-correct"


def _degenerate_pool(rng, m, n, c, structure):
    """Label pool whose rows are random, then rewritten per structure:
    (kind, row, source) makes row a clone or a correctness complement of
    source, or a model that is always right."""
    truth = rng.integers(0, c, size=n)
    labels = np.where(rng.random((m, n)) < 0.6, truth, (truth + rng.integers(1, c, size=n)) % c)
    for kind, row, source in structure:
        row, source = row % m, source % m
        if kind == CLONE:
            labels[row] = labels[source]
        elif kind == COMPLEMENT:
            labels[row] = np.where(labels[source] == truth, (truth + 1) % c, truth)
        else:
            labels[row] = truth
    return pool_from_labels(labels, truth, c)


def _focal_terms(pool, cm, members, focal, cfg):
    """sq_epsilon and sq_alpha of one focal, computed on its own: the mean
    share of the focal's negative set each non-focal member gets right, and
    the mean multiclass_kappa of the non-focal pairs on that set."""
    neg = negative_samples(cm, members, mode=FOCAL_ERRS, seed=cfg.seed,
                           cap=cfg.negative_cap, focal_id=focal)
    idx = list(neg.sample_indices)
    others = [a for a in members if a != focal]
    eps = np.mean([cm.bits[a, idx].sum() / len(idx) for a in others])
    if len(others) < 2:
        return eps, 0.0
    if cfg.alpha_on_labels:
        data, n_classes = pool.predicted_labels(), pool.n_classes
    else:
        data, n_classes = cm.bits.astype(np.int64), 2
    kappas = [multiclass_kappa(data[a, idx], data[b, idx], n_classes)
              for a, b in combinations(others, 2)]
    return eps, np.mean(kappas)


def _team_list(rng, m, count):
    teams = list(enumerate_teams(m))
    picked = rng.choice(len(teams), size=min(count, len(teams)), replace=False)
    return [teams[i] for i in picked]  # random subset in random order


structures = st.lists(
    st.tuples(st.sampled_from((CLONE, COMPLEMENT, ALL_CORRECT)),
              st.integers(0, 11), st.integers(0, 11)),
    max_size=4,
)
configs = st.builds(
    ScoreConfig,
    w_epsilon=st.sampled_from((1.0, 0.3, 0.0)),
    w_alpha=st.sampled_from((1.0, 1.7, 0.0)),
    use_full_set=st.booleans(),
    alpha_on_labels=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 12), structure=structures, cfg=configs)
# Models 0 and 1 are always right: team 01 has an empty negative set, and
# every focal of it is skipped by SQ.
@example(seed=5, m=3, structure=[(ALL_CORRECT, 0, 0), (ALL_CORRECT, 1, 0)], cfg=ScoreConfig())
@example(seed=6, m=4, structure=[(ALL_CORRECT, 2, 0), (ALL_CORRECT, 3, 0)],
         cfg=ScoreConfig(use_full_set=True, alpha_on_labels=False))
def test_sweep_equals_per_team_paths_and_oracles(seed, m, structure, cfg):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(4, 30)), int(rng.integers(2, 5))
    pool = _degenerate_pool(rng, m, n, c, structure)
    cm = correctness(pool)
    teams = _team_list(rng, m, 25)
    everything = list(range(n))
    subsets = [
        everything if cfg.use_full_set
        else [j for j in everything if not cm.bits[list(t.member_ids), j].all()]
        for t in teams
    ]

    empty = [t.team_key for t, subset in zip(teams, subsets) if not subset]
    if empty:
        # Only the negative sets can be empty, and the sweep names the first
        # offending team in input order.
        with pytest.raises(UndefinedDiversityError, match=f"team {empty[0]} "):
            score_teams(pool, cm, teams, list(CLASSICAL), cfg)
    else:
        sweep = score_teams(pool, cm, teams, list(CLASSICAL), cfg)
        for team, subset in zip(teams, subsets):
            members = list(team.member_ids)
            per_team = classical_scores(cm.bits[members][:, subset], list(CLASSICAL))
            for metric, oracle in CLASSICAL.items():
                got = sweep[metric][team.team_key]
                assert got == per_team[metric], (metric, team.team_key)
                want = oracle(cm.bits, members, subset)
                assert got.value == pytest.approx(want, abs=1e-12), (metric, team.team_key)

    sq = score_teams(pool, cm, teams, ["SQ"], cfg)["SQ"]
    labels = pool.predicted_labels()
    for team in teams:
        members = list(team.member_ids)
        got = sq[team.team_key]
        assert got == score_team(pool, cm, team, "SQ", cfg)
        evaluated, skipped, aggregate = ref.sq_breakdown(
            labels, cm.bits, members, pool.n_classes, cfg.w_epsilon, cfg.w_alpha,
            cfg.alpha_on_labels,
        )
        assert got.value == pytest.approx(aggregate, abs=1e-12)
        assert got.detail.skipped_focals == skipped
        assert got.note == ("all-focals-skipped" if not evaluated else None)
        assert [f.focal_id for f in got.detail.per_focal] == sorted(evaluated)
        for focal in got.detail.per_focal:
            eps, alpha = _focal_terms(pool, cm, members, focal.focal_id, cfg)
            assert focal.sq_epsilon == eps
            assert focal.sq_alpha == alpha
            count, eps, alpha, combined = evaluated[focal.focal_id]
            assert focal.negative_count == count
            assert focal.combined == pytest.approx(combined, abs=1e-12)


@pytest.mark.parametrize("cfg", [
    ScoreConfig(), ScoreConfig(alpha_on_labels=False), ScoreConfig(negative_cap=50),
], ids=["labels", "correctness", "cap50"])
def test_sq_focal_tables_equal_per_focal_terms(cfg):
    """Each focal's terms, gathered from the count tables, are bit-identical
    to the terms computed on their own. At 13 models each focal has 12
    non-focal members, where a batched marg @ marg.T would change the
    chance agreement of some pairs by an ulp."""
    pool = generate(default_spec(n_models=13, n_samples=300, seed=0))
    cm = correctness(pool)
    members = list(range(13))
    detail = score_team(pool, cm, members, "SQ", cfg).detail
    assert [f.focal_id for f in detail.per_focal] == members
    for focal in detail.per_focal:
        eps, alpha = _focal_terms(pool, cm, members, focal.focal_id, cfg)
        assert focal.sq_epsilon == eps, focal.focal_id
        assert focal.sq_alpha == alpha, focal.focal_id


def test_sweep_batches_of_many_teams_equal_single_teams():
    """Batches span several chunks at this size; every score is the one the
    team gets when scored alone."""
    pool = random_pool(41, 11, 40, 3)
    cm = correctness(pool)
    teams = list(enumerate_teams(11))
    metrics = [*CLASSICAL, "SQ"]
    for cfg in (ScoreConfig(), ScoreConfig(use_full_set=True, alpha_on_labels=False)):
        sweep = score_teams(pool, cm, teams, metrics, cfg)
        assert list(sweep) == metrics
        for metric in metrics:
            assert list(sweep[metric]) == [t.team_key for t in teams]
        for team in teams[::37]:
            for metric in metrics:
                assert sweep[metric][team.team_key] == score_team(pool, cm, team, metric, cfg)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 12), clones=st.booleans())
def test_accuracy_table_equals_reference_votes(seed, m, clones):
    rng = np.random.default_rng(seed)
    pool = random_pool(seed, m, int(rng.integers(3, 25)), int(rng.integers(2, 5)))
    if clones:
        probs = np.array(pool.probs)
        probs[-1] = probs[0]
        pool = pool_from_probs(probs, pool.truth)
    teams = _team_list(rng, m, 30)
    teams = teams + teams[: len(teams) // 3]  # repeated teams
    for method, oracle in ((SOFT, ref.soft_vote_labels), (MAJORITY, ref.majority_vote_labels)):
        table = team_accuracy_table(pool, teams, method)
        assert list(table) == list(dict.fromkeys(t.team_key for t in teams))
        for team in teams:
            predicted = oracle(pool.probs, list(team.member_ids))
            want = float(np.mean(np.asarray(predicted) == pool.truth))
            assert table[team.team_key] == pytest.approx(want, abs=0)
            assert consensus(pool, team, method).predicted.tolist() == predicted


def _assert_table_matches_votes(pool, teams, small_batch_bytes, oracle_every=1):
    """The table equals consensus on every team, and, on every
    oracle_every-th team, the reference votes, at abs=0. It is the same
    table when a batch budget of small_batch_bytes splits the teams and
    the exactly voted cells at many more boundaries."""
    for method, oracle in ((SOFT, ref.soft_vote_labels), (MAJORITY, ref.majority_vote_labels)):
        table = team_accuracy_table(pool, teams, method)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(teams_module, "_BATCH_BYTES", small_batch_bytes)
            assert team_accuracy_table(pool, teams, method) == table
        for i, team in enumerate(teams):
            fused = consensus(pool, team, method)
            assert table[team.team_key] == fused.accuracy, (method, team.team_key)
            if i % oracle_every == 0:
                predicted = oracle(pool.probs, list(team.member_ids))
                want = float(np.mean(np.asarray(predicted) == pool.truth))
                assert table[team.team_key] == pytest.approx(want, abs=0)
                assert fused.predicted.tolist() == predicted, (method, team.team_key)


# Ways to rewrite one sample's rows so that every model puts most of its mass
# on the same two classes a < b: each model's two values differ by a few
# ulps (which the team sums round away or keep), are exactly equal, or one
# of them peaks (which ties vote counts in teams split evenly between them).
ULPS, EXACT_TIE, SPLIT_VOTE = "ulps", "exact-tie", "split-vote"


@st.composite
def _near_tie_pools(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n, c = draw(st.integers(3, 7)), draw(st.integers(1, 12)), draw(st.integers(2, 4))
    raw = rng.random((m, n, c)) + 1e-3
    probs = raw / raw.sum(axis=2, keepdims=True)
    truth = rng.integers(0, c, size=n)
    kinds = draw(st.lists(st.sampled_from((None, ULPS, EXACT_TIE, SPLIT_VOTE)),
                          min_size=n, max_size=n))
    for j, kind in enumerate(kinds):
        if kind is None:
            continue
        a, b = sorted((int(truth[j]), int((truth[j] + rng.integers(1, c)) % c)))
        for i in range(m):
            rest = np.zeros(c)
            if kind == ULPS:
                top = 0.5 if c == 2 else float(rng.choice([0.35, 0.45, 0.49]))
                pair = [top, top]
                pair[int(rng.integers(2))] = top + int(rng.integers(1, 4)) * np.spacing(top)
            elif kind == EXACT_TIE:
                top = 0.5 if c == 2 else float(rng.choice([0.4, 1 / 3 if c == 3 else 0.45]))
                pair = [top, top]
            else:
                top = float(rng.uniform(0.5, 0.9))
                pair = [top, 1.0 - top] if c == 2 else [top, (1.0 - top) / 2]
                pair = pair[::int(rng.choice([1, -1]))]
            rest[a], rest[b] = pair
            others = [k for k in range(c) if k not in (a, b)]
            if others:
                rest[others] = (1.0 - sum(pair)) / len(others)
            probs[i, j] = rest
    if draw(st.booleans()):
        probs[-1] = probs[0]  # clone members
    if draw(st.booleans()):
        probs[1] = np.where(np.arange(c) == truth[:, None], 0.9, 0.1 / (c - 1))  # always right
    return pool_from_probs(probs, truth)


_X, _ULP = 0.35, float(np.spacing(0.35))


@settings(max_examples=60, deadline=None)
@given(pool=_near_tie_pools())
# Class 1, the truth, leads class 0 by one ulp in team 012's exact sums, but
# its float sums of both classes are equal, so the exact vote picks class 0.
@example(pool=pool_from_probs(
    [[(_X, _X + _ULP, 0.3 - _ULP)], [(_X, _X + _ULP, 0.3 - _ULP)], [(_X + _ULP, _X, 0.3 - _ULP)]],
    [1],
))
def test_accuracy_table_on_planted_near_ties(pool):
    _assert_table_matches_votes(pool, list(enumerate_teams(pool.n_models)), 256)


def test_accuracy_table_on_synth_pool_screens_and_votes_exactly():
    """On a realistic pool most cells are screened and some are voted
    exactly, across many batches of every size."""
    pool = generate(default_spec(n_models=10, n_samples=1000, n_classes=15, seed=3))
    teams = list(enumerate_teams(10))
    exact = []
    exact_votes = teams_module._exact_votes

    def counted(pool, method, members, samples):
        exact.append(len(samples))
        return exact_votes(pool, method, members, samples)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(teams_module, "_exact_votes", counted)
        for method in (SOFT, MAJORITY):
            exact.clear()
            team_accuracy_table(pool, teams, method)
            assert 0 < sum(exact) < 0.2 * len(teams) * pool.n_samples, method
    _assert_table_matches_votes(pool, teams, 1 << 14, oracle_every=67)

