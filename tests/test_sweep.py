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

import json
import re
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from _pools import pool_from_labels, pool_from_probs, random_pool
from sqdiv import analytics
from sqdiv.analytics import correlation_report, sweep
from sqdiv.cli import main
from sqdiv.pool import correctness, write_pool
from sqdiv.qmetrics import (
    UndefinedDiversityError,
    kappa,
    negative_samples,
)
from sqdiv.scoring import ScoreConfig, classical_scores, score_team, score_teams
from sqdiv import teams as teams_module
from sqdiv.synth import default_spec, generate
from sqdiv.teams import (
    MAJORITY,
    SOFT,
    EnsembleTeam,
    consensus,
    enumerate_teams,
    make_team,
    team_accuracy_table,
)

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


def multiclass_kappa(labels_a, labels_b, n_classes):
    """Cohen's kappa between two label sequences: qmetrics.kappa of their
    agreement count and the product of their per-class label counts."""
    a = np.asarray(labels_a, dtype=np.int64)
    b = np.asarray(labels_b, dtype=np.int64)
    chance = np.bincount(a, minlength=n_classes) @ np.bincount(b, minlength=n_classes)
    return float(kappa(np.count_nonzero(a == b), chance, a.size))


def _focal_terms(pool, cm, members, focal, cfg):
    """sq_epsilon and sq_alpha of one focal, computed on its own: the mean
    share of the focal's negative set each non-focal member gets right, and
    the mean multiclass_kappa of the non-focal pairs on that set."""
    neg = negative_samples(cm, members, seed=cfg.seed,
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
    negative_cap=st.sampled_from((None, 1, 3, 8)),
    seed=st.integers(0, 5),
    use_full_set=st.booleans(),
    alpha_on_labels=st.booleans(),
)


def _capped_sq_breakdown(pool, cm, members, cfg):
    """ref.sq_breakdown's (evaluated, skipped, aggregate) on capped focal
    negative sets: each focal's terms are _focal_terms on its own draw."""
    errors = {f: int(np.count_nonzero(~cm.bits[f])) for f in members}
    evaluated = {}
    for focal in (f for f in members if errors[f]):
        eps, alpha = _focal_terms(pool, cm, members, focal, cfg)
        evaluated[focal] = (min(cfg.negative_cap, errors[focal]), eps, alpha,
                            cfg.w_epsilon * eps + cfg.w_alpha * alpha)
    aggregate = np.mean([v[3] for v in evaluated.values()]) if evaluated else 0.0
    return evaluated, {f for f in members if not errors[f]}, aggregate


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 12), structure=structures, cfg=configs)
# Models 0 and 1 are always right: team 01 has an empty negative set, and
# every focal of it is skipped by SQ.
@example(seed=5, m=3, structure=[(ALL_CORRECT, 0, 0), (ALL_CORRECT, 1, 0)], cfg=ScoreConfig())
@example(seed=6, m=4, structure=[(ALL_CORRECT, 2, 0), (ALL_CORRECT, 3, 0)],
         cfg=ScoreConfig(use_full_set=True, alpha_on_labels=False))
# Capped draws, with model 2 a skipped focal in every team it joins.
@example(seed=7, m=5, structure=[(ALL_CORRECT, 2, 0)], cfg=ScoreConfig(negative_cap=3, seed=2))
def test_sweep_equals_per_team_paths_and_oracles(seed, m, structure, cfg):
    """Every score equals the per-team computation and the oracles: the
    classical metrics on all samples, the team's negative set or, capped,
    its own draw from that set; SQ per focal on the focal's negative set or
    its own capped draw."""
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(4, 30)), int(rng.integers(2, 5))
    pool = _degenerate_pool(rng, m, n, c, structure)
    cm = correctness(pool)
    teams = _team_list(rng, m, 25)
    everything = list(range(n))
    negatives = [[j for j in everything if not cm.bits[list(t.member_ids), j].all()]
                 for t in teams]
    if cfg.use_full_set:
        subsets = [everything] * len(teams)
    elif cfg.negative_cap is None:
        subsets = negatives
    else:
        subsets = [
            list(negative_samples(cm, t, seed=cfg.seed, cap=cfg.negative_cap).sample_indices)
            for t in teams
        ]
        for negative, subset in zip(negatives, subsets):
            assert set(subset) <= set(negative)
            assert len(subset) == min(cfg.negative_cap, len(negative))

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
        if cfg.negative_cap is None:
            evaluated, skipped, aggregate = ref.sq_breakdown(
                labels, cm.bits, members, pool.n_classes, cfg.w_epsilon, cfg.w_alpha,
                cfg.alpha_on_labels,
            )
        else:
            evaluated, skipped, aggregate = _capped_sq_breakdown(pool, cm, members, cfg)
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


def test_full_set_ignores_the_cap():
    pool = random_pool(17, 6, 40, 3)
    cm = correctness(pool)
    teams = list(enumerate_teams(6))
    full = score_teams(pool, cm, teams, list(CLASSICAL), ScoreConfig(use_full_set=True))
    capped = score_teams(pool, cm, teams, list(CLASSICAL),
                         ScoreConfig(use_full_set=True, negative_cap=3, seed=2))
    for metric in CLASSICAL:
        assert np.array_equal(capped[metric].array, full[metric].array)
        assert dict(capped[metric]) == dict(full[metric])


# The three scoring paths: classical on full negative sets, classical on
# capped ones, and SQ.
_BATCH_PATHS = ((list(CLASSICAL), ScoreConfig()),
                (list(CLASSICAL), ScoreConfig(negative_cap=5)),
                (["SQ"], ScoreConfig()))


@pytest.mark.parametrize("ids, key", [
    ((-1, 0), None), ((0, 9), None), ((0,), None), ((1, 1), None), ((2, 0), "02"),
    ((0, 1.9), None), ((True, 2), None), ((0, 2.0), None), ((np.bool_(True), 2), None),
    ((0, 1), "23"),
], ids=["negative-id", "id-past-pool", "one-member", "repeated-member", "unsorted", "float",
        "bool", "integral-float", "numpy-bool", "wrong-key"])
def test_batch_paths_reject_bad_teams(ids, key):
    """One table of bad teams for every entry point. make_team, consensus,
    score_team and negative_samples in both modes refuse bad member ids.
    score_teams and team_accuracy_table refuse a sequence holding an
    EnsembleTeam that is not what make_team makes of it: bad ids, ids out of
    order, or a key team_key_for would not give."""
    pool = generate(default_spec(n_models=4, n_samples=50, n_classes=3, seed=1))
    cm = correctness(pool)
    if key is None:
        # The key of the ids' set, so only the ids are at fault.
        key = "".join(map(str, sorted(ids)))
        focal = next(i for i in ids if type(i) is int and 0 <= i < 4)
        refusals = [
            lambda: make_team(ids, 4),
            *(lambda m=m: consensus(pool, ids, m) for m in (SOFT, MAJORITY)),
            *(lambda m=m: score_team(pool, cm, ids, m) for m in ("BD", "SQ")),
            lambda: negative_samples(cm, ids),
            lambda: negative_samples(cm, ids, focal_id=focal),
        ]
        for refusal in refusals:
            with pytest.raises(ValueError):
                refusal()
    teams = [make_team((1, 3), 4), EnsembleTeam(member_ids=ids, team_key=key)]
    for metrics, cfg in _BATCH_PATHS:
        with pytest.raises(ValueError, match="bad team"):
            score_teams(pool, cm, teams, metrics, cfg)
    for method in (SOFT, MAJORITY):
        with pytest.raises(ValueError, match="bad team"):
            team_accuracy_table(pool, teams, method)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 8))
def test_plan_and_team_sequences_score_alike(seed, m):
    """enumerate_teams returns a TeamPlan of per-size member arrays, the
    combinations in order. score_teams and team_accuracy_table give the same
    bits on the plan, on its teams as a list and on that list shuffled."""
    rng = np.random.default_rng(seed)
    pool = random_pool(seed, m, int(rng.integers(3, 30)), int(rng.integers(2, 5)))
    cm = correctness(pool)
    plan = enumerate_teams(m)
    assert [members.tolist() for _, members in plan.groups] == [
        [list(ids) for ids in combinations(range(m), k)] for k in range(2, m + 1)]
    teams = list(plan)
    assert [t.member_ids for t in teams] == [
        ids for k in range(2, m + 1) for ids in combinations(range(m), k)]
    order = rng.permutation(len(teams))
    shuffled = [teams[i] for i in order]
    paths = (*_BATCH_PATHS, (list(CLASSICAL), ScoreConfig(use_full_set=True)),
             (["SQ"], ScoreConfig(alpha_on_labels=False)))
    for metrics, cfg in paths:
        try:
            by_plan = score_teams(pool, cm, plan, metrics, cfg)
        except UndefinedDiversityError as exc:  # a team every member always gets right
            with pytest.raises(UndefinedDiversityError, match=re.escape(str(exc))):
                score_teams(pool, cm, teams, metrics, cfg)
            with pytest.raises(UndefinedDiversityError):
                score_teams(pool, cm, shuffled, metrics, cfg)
            continue
        by_list = score_teams(pool, cm, teams, metrics, cfg)
        by_shuffled = score_teams(pool, cm, shuffled, metrics, cfg)
        for metric in metrics:
            a, b, c = by_plan[metric], by_list[metric], by_shuffled[metric]
            assert a.array.tobytes() == b.array.tobytes()
            assert a.array[order].tobytes() == c.array.tobytes()
            assert a.team_keys == b.team_keys == plan.team_keys
            assert list(c.team_keys) == [plan.team_keys[i] for i in order]
            assert a.team_sizes.tolist() == b.team_sizes.tolist() == plan.team_sizes.tolist()
            assert dict(a) == dict(b) == dict(c)
    for method in (SOFT, MAJORITY):
        table = team_accuracy_table(pool, plan, method)
        assert table.tobytes() == team_accuracy_table(pool, teams, method).tobytes()
        assert table[order].tobytes() == team_accuracy_table(pool, shuffled, method).tobytes()
    with pytest.raises(ValueError, match=f"a plan for {m + 1} models on a {m}-model pool"):
        score_teams(pool, cm, enumerate_teams(m + 1), ["BD"])


def test_score_teams_rejects_a_repeated_team_key():
    """A column holds one score per team key, so score_teams refuses a team
    key given twice: a repeated team. A hand-built team that reuses
    another's key is refused before that, as a team whose key is not the one
    team_key_for gives. team_accuracy_table takes repeated teams."""
    pool = generate(default_spec(n_models=4, n_samples=50, n_classes=3, seed=1))
    cm = correctness(pool)
    a, b = make_team((0, 1), 4), make_team((1, 3), 4)
    for teams, message in (([a, b, a], "team key '01' repeated"),
                           ([a, EnsembleTeam(member_ids=(1, 3), team_key="01")], "bad team")):
        for metrics, cfg in _BATCH_PATHS:
            with pytest.raises(ValueError, match=message):
                score_teams(pool, cm, teams, metrics, cfg)
    assert team_accuracy_table(pool, [a, b, a]).shape == (3,)


def test_score_teams_rejects_repeated_metrics():
    pool = generate(default_spec(n_models=4, n_samples=50, n_classes=3, seed=1))
    with pytest.raises(ValueError, match="^duplicate metrics requested$"):
        score_teams(pool, correctness(pool), enumerate_teams(4), ["sq", "CK", "SQ"])


_SCORERS = ("score_teams", "classical_scores", "sweep", "correlation_report", "evaluate")
# Metric lists that scoring.normalize_metrics refuses for every scorer, and
# SQ, which classical_scores alone refuses: (names, message, refusing
# callers). evaluate takes the names as one comma list, the empty one as ",".
_BAD_METRIC_LISTS = {
    "unknown": (["ck", "wat"], "unknown metric: 'wat'", _SCORERS),
    "repeated": (["ck", "bd", "ck"], "duplicate metrics requested", _SCORERS),
    "repeated-case": (["sq", "SQ"], "duplicate metrics requested", _SCORERS),
    "empty": ([], "no metrics requested", _SCORERS),
    "sq-not-classical": (["ck", "sq"], "not a classical metric: 'SQ'", ("classical_scores",)),
}


@pytest.mark.parametrize("names, message, refusing", _BAD_METRIC_LISTS.values(),
                         ids=_BAD_METRIC_LISTS)
def test_every_scorer_refuses_a_bad_metric_list_alike(tmp_path, capsys, monkeypatch,
                                                     names, message, refusing):
    """score_teams, classical_scores, sweep and correlation_report raise the
    same ValueError, the last two before any consensus is taken. evaluate
    --metrics, typed or from --config, exits 2 with one stderr line naming
    the flag and creates no --out."""
    pool = generate(default_spec(n_models=4, n_samples=50, n_classes=3, seed=1))
    cm = correctness(pool)

    def no_consensus(*args, **kwargs):
        raise AssertionError("team_accuracy_table ran")

    monkeypatch.setattr(analytics, "team_accuracy_table", no_consensus)
    calls = {
        "score_teams": lambda: score_teams(pool, cm, enumerate_teams(4), names),
        "classical_scores": lambda: classical_scores(cm.bits, names),
        "sweep": lambda: sweep(pool, cm, names),
        "correlation_report": lambda: correlation_report(pool, cm, names),
    }
    for caller, call in calls.items():
        if caller in refusing:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                call()
    if "evaluate" not in refusing:
        return
    manifest = write_pool(pool, tmp_path / "pool")
    listed = ",".join(names) or ","
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"metrics": listed}))
    out = tmp_path / "out"
    for flags in (["--metrics", listed], ["--config", str(config)]):
        assert main(["evaluate", "--pool", str(manifest), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --metrics: {message}") and err.count("\n") == 1
        assert not out.exists()


def test_sq_weights_that_overflow_a_score_are_rejected():
    """Finite weights near the float maximum overflow SQ's per-focal sum and
    team mean: score_teams raises naming the weights, and warns of nothing.
    The classical metrics take no weight and score as before."""
    pool = generate(default_spec(n_models=4, n_samples=50, n_classes=3, seed=1))
    cm, plan = correctness(pool), enumerate_teams(4)
    cfg = ScoreConfig(w_epsilon=1e308, w_alpha=1e308)
    message = r"^SQ weights w_epsilon=1e\+308 and w_alpha=1e\+308 overflow the SQ score$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metrics in (["SQ"], ["CK", "SQ"]):
            with pytest.raises(ValueError, match=message):
                score_teams(pool, cm, plan, metrics, cfg)
        with pytest.raises(ValueError, match=message):
            score_team(pool, cm, list(plan)[-1], "SQ", cfg)
        classical = score_teams(pool, cm, plan, ["CK", "KW"], cfg)
    expected = score_teams(pool, cm, plan, ["CK", "KW"])
    for metric in ("CK", "KW"):
        assert classical[metric].array.tobytes() == expected[metric].array.tobytes()


def test_column_membership_reads_team_keys():
    """`key in column` is answered from team_keys and builds no score object."""
    pool = generate(default_spec(n_models=5, n_samples=60, n_classes=3, seed=2))
    cm = correctness(pool)
    teams = list(enumerate_teams(5))
    for metrics, cfg in _BATCH_PATHS:
        for column in score_teams(pool, cm, teams, metrics, cfg).values():
            for key in (teams[3].team_key, "0123456", 12, (0, 1)):
                assert (key in column) == (key in column.team_keys)
            assert teams[3].team_key in column and "0123456" not in column
            assert column._scores is None


@pytest.mark.parametrize("cfg", [
    ScoreConfig(), ScoreConfig(alpha_on_labels=False), ScoreConfig(negative_cap=50),
], ids=["labels", "correctness", "cap50"])
def test_sq_focal_tables_equal_per_focal_terms(cfg):
    """Each focal's terms, gathered from the count tables, are bit-identical
    to the terms computed on their own. At 13 models each focal has 12
    non-focal members, enough that a float chance agreement summed in
    another order would move some kappas by an ulp; the tables' integer
    counts leave no order to matter."""
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
            column = sweep[metric]
            assert len(column) == column.array.size == len(teams)
            assert list(column) == list(column.team_keys) == [t.team_key for t in teams]
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
        assert table.shape == (len(teams),)
        for team, accuracy in zip(teams, table):
            predicted = oracle(pool.probs, list(team.member_ids))
            want = float(np.mean(np.asarray(predicted) == pool.truth))
            assert accuracy == pytest.approx(want, abs=0)
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
            assert np.array_equal(team_accuracy_table(pool, teams, method), table)
        for i, team in enumerate(teams):
            fused = consensus(pool, team, method)
            assert table[i] == fused.accuracy, (method, team.team_key)
            if i % oracle_every == 0:
                predicted = oracle(pool.probs, list(team.member_ids))
                want = float(np.mean(np.asarray(predicted) == pool.truth))
                assert table[i] == pytest.approx(want, abs=0)
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

