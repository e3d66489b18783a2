import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from _pools import pool_from_labels, pool_from_probs, random_pool
from sqdiv.analytics import (
    UndefinedCorrelationError,
    case_study,
    correlation_report,
    pearson,
    spearman,
    sweep,
)
from sqdiv.pool import correctness
from sqdiv.scoring import METRICS, ScoreConfig, score_teams
from sqdiv.teams import count_teams, consensus, enumerate_teams, make_team


def test_pearson_perfect_lines():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 2, 3], [5, 5, 5])
    for xs in ([1.0, np.nan, 3.0], [1.0, np.inf, 3.0], [1e300, -1e300, 0.0]):
        with pytest.raises(UndefinedCorrelationError, match="non-finite"):
            pearson(xs, [1, 2, 4])
        with pytest.raises(UndefinedCorrelationError, match="non-finite"):
            pearson([1, 2, 4], xs)
    with pytest.raises(ValueError):
        pearson([1], [2])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(st.floats(-50, 50), min_size=3, max_size=20),
    seed=st.integers(0, 99),
    slope=st.floats(0.1, 10),
    shift=st.floats(-5, 5),
)
def test_pearson_symmetry_and_affine_invariance(xs, seed, slope, shift):
    rng = np.random.default_rng(seed)
    ys = rng.normal(size=len(xs)).tolist()
    x = np.asarray(xs)
    # spread must survive squaring in float64, else variance underflows to 0
    if np.ptp(x) < 1e-6 or np.ptp(ys) < 1e-6:
        return
    r = pearson(xs, ys)
    assert pearson(ys, xs) == pytest.approx(r, abs=1e-12)
    assert pearson((slope * x + shift).tolist(), ys) == pytest.approx(r, abs=1e-12)
    assert r == pytest.approx(ref.pearson(xs, ys), abs=1e-10)


def test_spearman_monotone_and_ties():
    assert spearman([1, 2, 3, 4], [1, 8, 27, 64]) == pytest.approx(1.0, abs=1e-12)
    assert spearman([1, 2, 3, 4], [10, 7, 5, 1]) == pytest.approx(-1.0, abs=1e-12)
    # hand-ranked with a tie: x ranks (1.5, 1.5, 3), y ranks (1, 2, 3)
    expected = pearson([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])
    assert spearman([5, 5, 9], [1, 2, 3]) == pytest.approx(expected, abs=1e-12)


def test_scatter_export_shape_and_recompute():
    pool = random_pool(101, 4, 50, 3)
    cm = correctness(pool)
    rows = sweep(pool, cm, ["bd"]).rows("BD")
    assert len(rows) == 11
    assert all(0.0 <= acc <= 1.0 for _, _, _, acc in rows)
    keys = [k for k, _, _, _ in rows]
    assert keys == [t.team_key for t in enumerate_teams(4)]

    teams = list(enumerate_teams(4))
    scores = score_teams(pool, cm, teams, ["BD"], ScoreConfig())["BD"]
    for key, size, score, acc in rows:
        team = next(t for t in teams if t.team_key == key)
        assert size == team.size
        assert score == scores[key].value
        assert acc == consensus(pool, team).accuracy


def _perfect_pair_pool(seed, m=5, n=200, c=3):
    """Random label pool in which models 0 and 1 are always right."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, c, size=n)
    labels = np.where(rng.random((m, n)) < 0.6, truth, (truth + 1) % c)
    labels[:2] = truth
    return pool_from_labels(labels, truth, c)


@pytest.mark.parametrize("cfg", [
    ScoreConfig(), ScoreConfig(negative_cap=50), ScoreConfig(use_full_set=True),
], ids=["default", "neg-cap-50", "full-set"])
def test_scatter_rows_from_columns_equal_key_lookups(cfg):
    """Rows read from the score arrays, as the CLI writes them, equal rows
    read through per-key lookups, and the degenerate-case notes survive the
    lookup. In the second pool, every focal of team 01 is skipped by SQ and,
    on all samples, nothing fails for GD; its empty negative set leaves the
    classical metrics undefined otherwise."""
    for pool in (random_pool(31, 5, 200, 3), _perfect_pair_pool(7)):
        perfect = bool(correctness(pool).bits[:2].all())
        metrics = list(METRICS) if cfg.use_full_set or not perfect else ["SQ"]
        result = sweep(pool, correctness(pool), metrics, cfg)
        rows = {metric: result.rows(metric) for metric in metrics}
        for metric in metrics:
            column = result.scores[metric]
            looked_up = [
                (key, size, column[key].value, acc) for key, size, acc in
                zip(result.team_keys, result.team_sizes.tolist(), result.accuracy.tolist())
            ]
            assert rows[metric] == looked_up, metric
            notes = {key: column[key].note for key in result.team_keys}
            expected = {"GD": "no-failures", "SQ": "all-focals-skipped"}.get(metric)
            flagged = {key for key, note in notes.items() if note is not None}
            if perfect and expected and (metric == "SQ" or cfg.use_full_set):
                assert flagged == {"01"} and notes["01"] == expected, metric
            else:
                assert not flagged, metric
            if metric == "SQ":
                assert column["01"].detail.all_skipped == perfect


@pytest.mark.parametrize("m", [3, 5])
def test_scatter_row_count_equals_enumeration(m):
    pool = random_pool(m, m, 20, 3)
    cm = correctness(pool)
    assert len(sweep(pool, cm, ["kw"]).rows("KW")) == count_teams(m)


def test_correlation_report_undefined_for_constant_metric():
    # every candidate team of clones scores 0 diversity -> constant column
    labels = np.tile(np.array([0, 1, 0, 1, 1, 0]), (3, 1))
    labels[:, 5] = 1  # shared error so negative sets are non-empty
    pool = pool_from_labels(labels, truth=(0, 1, 0, 1, 1, 0), n_classes=2)
    cm = correctness(pool)
    report = correlation_report(pool, cm, ["ck", "bd"])
    assert report == {"CK": None, "BD": None}


def test_correlation_report_matches_manual_computation():
    pool = random_pool(202, 4, 60, 4)
    cm = correctness(pool)
    report = correlation_report(pool, cm, ["bd", "sq"])
    teams = list(enumerate_teams(4))
    scores = score_teams(pool, cm, teams, ["BD", "SQ"], ScoreConfig())
    accs = [consensus(pool, t).accuracy for t in teams]
    for metric in ("BD", "SQ"):
        values = [scores[metric][t.team_key].value for t in teams]
        assert report[metric] == pytest.approx(pearson(values, accs), abs=1e-12)


def test_correlation_report_spearman_flag():
    pool = random_pool(203, 3, 40, 3)
    cm = correctness(pool)
    report = correlation_report(pool, cm, ["bd"], use_spearman=True)
    teams = list(enumerate_teams(3))
    scores = score_teams(pool, cm, teams, ["BD"], ScoreConfig())["BD"]
    accs = [consensus(pool, t).accuracy for t in teams]
    expected = spearman([scores[t.team_key].value for t in teams], accs)
    assert report["BD"] == pytest.approx(expected, abs=1e-12)


def test_case_study_unanimous_team():
    labels = [(1, 0), (1, 0), (1, 0)]
    pool = pool_from_labels(labels, truth=(1, 0), n_classes=2)
    record = case_study(pool, make_team([0, 1, 2], 3), "s0")
    assert record["consensus"]["predicted"] == "c1"
    assert record["consensus"]["correct"]
    assert all(m["predicted"] == "c1" for m in record["members"])


def test_case_study_corrects_two_divergent_mistakes():
    # two members wrong in different ways, one confident correct member
    probs = [
        [(0.10, 0.80, 0.05, 0.05)],  # wrong: class 1
        [(0.05, 0.05, 0.10, 0.80)],  # wrong: class 3
        [(0.98, 0.00, 0.01, 0.01)],  # right with high confidence
    ]
    pool = pool_from_probs(probs, truth=[0])
    record = case_study(pool, make_team([0, 1, 2], 3), "s0")
    outcomes = [(m["predicted"], m["correct"]) for m in record["members"]]
    assert outcomes[0] == ("c1", False)
    assert outcomes[1] == ("c3", False)
    assert outcomes[2] == ("c0", True)
    assert record["consensus"] == {"method": "soft-voting", "predicted": "c0", "correct": True}


def test_case_study_is_pure_projection():
    pool = random_pool(77, 3, 12, 3)
    team = make_team([0, 2], 3)
    record = case_study(pool, team, "s4", consensus_method="majority")
    j = pool.sample_ids.index("s4")
    for member in record["members"]:
        i = member["model_id"]
        assert member["probabilities"] == [float(v) for v in pool.probs[i, j]]
        assert member["name"] == pool.models[i]
    assert record["truth"] == pool.classes[int(pool.truth[j])]
    assert record["team"] == "02"


def test_case_study_unknown_sample():
    pool = random_pool(7, 3, 5, 3)
    with pytest.raises(KeyError, match="unknown sample_id"):
        case_study(pool, make_team([0, 1], 3), "sX")
