import numpy as np
import pytest

import _reference as ref
from _pools import make_cm, pool_from_labels, pool_from_probs, random_pool, score_column
from sqdiv.cli import main
from sqdiv.pool import correctness, model_accuracy, write_pool
from sqdiv.qmetrics import UndefinedDiversityError
from sqdiv.scoring import (
    HIGHER_IS_DIVERSE,
    ScoreConfig,
    metric_direction,
    score_team,
    score_teams,
)
from sqdiv.selection import SelectionRow, rank_teams, select_and_evaluate
from sqdiv.teams import enumerate_teams, make_team, parse_team_key


def test_rank_smaller_team_wins_ties():
    ranked = rank_teams(score_column({"068": 0.8, "0678": 0.8}, "CK"), k=2)
    assert [e.team.team_key for e in ranked] == ["068", "0678"]
    assert [e.rank for e in ranked] == [1, 2]


def test_rank_higher_is_diverse_default():
    ranked = rank_teams(score_column({"12": 0.3, "13": 0.9}, "BD"), k=1)
    assert ranked[0].team.team_key == "13"
    assert ranked[0].direction == "higher-is-diverse"


def test_rank_qs_lower_is_diverse():
    ranked = rank_teams(score_column({"12": 0.3, "13": 0.9}, "QS"), k=2)
    assert [e.team.team_key for e in ranked] == ["12", "13"]
    assert ranked[0].direction == "lower-is-diverse"


def test_rank_reads_the_columns_metric():
    """A column ranks in its own metric's direction and under its name: the
    same scores rank highest first as CK and lowest first as QS."""
    scores = {"01": 0.1, "012": 0.2, "013": 0.05, "0123": 0.15}
    ranked = rank_teams(score_column(scores, "CK"), 3)
    assert [(e.team.team_key, e.metric, e.direction) for e in ranked] == [
        ("012", "CK", "higher-is-diverse"), ("0123", "CK", "higher-is-diverse"),
        ("01", "CK", "higher-is-diverse")]
    ranked = rank_teams(score_column(scores, "QS"), 3)
    assert [(e.team.team_key, e.metric) for e in ranked] == [("013", "QS"), ("01", "QS"),
                                                              ("0123", "QS")]


def test_rank_lexicographic_residual_tie():
    ranked = rank_teams(score_column({"13": 0.5, "12": 0.5}, "SQ"), k=2)
    assert [e.team.team_key for e in ranked] == ["12", "13"]


def test_rank_k_larger_than_map_returns_all():
    ranked = rank_teams(score_column({"12": 0.1, "13": 0.2, "23": 0.3}, "GD"), k=10)
    assert len(ranked) == 3
    assert [e.rank for e in ranked] == [1, 2, 3]


def test_rank_is_deterministic_and_stable_under_insertion():
    scores = {"12": 0.4, "13": 0.9, "014": 0.9, "23": 0.1}
    first = rank_teams(score_column(scores, "KW"), k=10)
    again = rank_teams(score_column(scores, "KW"), k=10)
    assert first == again
    order = [e.team.team_key for e in first]
    scores["0123"] = 0.65
    wider = [e.team.team_key for e in rank_teams(score_column(scores, "KW"), k=10)]
    assert [k for k in wider if k != "0123"] == order


def test_rank_topk_stability():
    rng = np.random.default_rng(0)
    scores = {f"{a}{b}": float(rng.random()) for a in range(5) for b in range(a + 1, 5)}
    column = score_column(scores, "SQ")
    full = rank_teams(column, k=len(scores))
    for k in (1, 3, 5):
        top = rank_teams(column, k=k)
        assert top == full[:k]


def test_rank_validation():
    with pytest.raises(ValueError):
        rank_teams(score_column({}, "SQ"), k=1)
    with pytest.raises(ValueError):
        rank_teams(score_column({"12": 0.1}, "SQ"), k=0)


def _sorted_keys(scores, metric):
    """The ranking of {team key: score} as one sort of (signed score, size,
    key) tuples."""
    sign = -1.0 if metric_direction(metric) == HIGHER_IS_DIVERSE else 1.0
    items = list(scores.items())
    items.sort(key=lambda kv: (sign * kv[1], len(parse_team_key(kv[0])), kv[0]))
    return [key for key, _ in items]


def _clone_pool(m):
    labels = np.tile(np.array([0, 1, 0, 1, 1, 0]), (m, 1))
    labels[:, 5] = 1  # a shared error keeps every negative set non-empty
    return pool_from_labels(labels, truth=(0, 1, 0, 1, 1, 0), n_classes=2)


@pytest.mark.parametrize("pool", [_clone_pool(11), random_pool(12, 12, 30, 3)],
                         ids=["clones-m11", "random-m12"])
@pytest.mark.parametrize("metric", ["BD", "QS", "SQ"])
def test_rank_column_equals_tuple_sort(pool, metric):
    """Hyphenated keys compare as strings ("1-10" < "1-2"); the all-clone
    pool ties every score, so size and key decide the whole order."""
    cm = correctness(pool)
    teams = list(enumerate_teams(pool.n_models))
    column = score_teams(pool, cm, teams, [metric], ScoreConfig())[metric]
    expected = _sorted_keys({key: score.value for key, score in column.items()}, metric)
    ranked = rank_teams(column, k=len(teams))
    assert [e.team.team_key for e in ranked] == expected
    assert [e.score for e in ranked] == [column[key].value for key in expected]
    assert [e.rank for e in rank_teams(column, k=5)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("metric", ["CK", "QS"])
def test_rank_negative_zero_ties_with_zero(metric):
    scores = {"13": 0.0, "023": -0.0, "12": -0.0, "014": 0.0, "24": 0.5}
    expected = _sorted_keys(scores, metric)
    assert [k for k in expected if k != "24"] == ["12", "13", "014", "023"]
    ranked = rank_teams(score_column(scores, metric), k=5)
    assert [e.team.team_key for e in ranked] == expected


def test_score_teams_matches_score_team():
    """The sweep over every team of a random pool, and score_team on each
    team, equal the naive oracles: classical metrics on each team's negative
    set and on the full set, SQ under default and non-default settings."""
    pool = random_pool(31, 5, 60, 4)
    cm = correctness(pool)
    teams = list(enumerate_teams(5))
    labels = pool.predicted_labels()
    oracles = {
        "CK": ref.ck_diversity,
        "QS": ref.q_statistic,
        "BD": ref.binary_disagreement,
        "GD": ref.generalized_diversity,
        "KW": ref.kohavi_wolpert,
    }
    sq_settings = ({}, {"w_epsilon": 0.3, "w_alpha": 1.7}, {"alpha_on_labels": False})
    sweep = score_teams(pool, cm, teams, [*oracles, "SQ"], ScoreConfig())
    full = score_teams(pool, cm, teams, list(oracles), ScoreConfig(use_full_set=True))
    sq_sweeps = [score_teams(pool, cm, teams, ["SQ"], ScoreConfig(**kw)) for kw in sq_settings]
    everything = range(pool.n_samples)
    for team in teams:
        members, key = list(team.member_ids), team.team_key
        neg = [j for j in everything if not all(cm.bits[i][j] for i in members)]
        for metric, oracle in oracles.items():
            want = oracle(cm.bits, members, neg)
            assert sweep[metric][key].value == pytest.approx(want, abs=1e-12), (metric, key)
            single = score_team(pool, cm, team, metric).value
            assert single == pytest.approx(want, abs=1e-12), (metric, key)
            want_full = oracle(cm.bits, members, everything)
            assert full[metric][key].value == pytest.approx(want_full, abs=1e-12), (metric, key)
        for kw, result in zip(sq_settings, sq_sweeps):
            _, _, want = ref.sq_breakdown(labels, cm.bits, members, pool.n_classes, **kw)
            assert result["SQ"][key].value == pytest.approx(want, abs=1e-12), (kw, key)
            single = score_team(pool, cm, team, "SQ", ScoreConfig(**kw)).value
            assert single == pytest.approx(want, abs=1e-12), (kw, key)


def test_score_teams_full_set_switch():
    pool = random_pool(32, 3, 40, 3)
    cm = correctness(pool)
    teams = list(enumerate_teams(3))
    neg = score_teams(pool, cm, teams, ["BD"], ScoreConfig())
    full = score_teams(pool, cm, teams, ["BD"], ScoreConfig(use_full_set=True))
    key = teams[0].team_key
    assert neg["BD"][key].value != full["BD"][key].value
    expected = ref.binary_disagreement(cm.bits, teams[0].member_ids, range(pool.n_samples))
    assert full["BD"][key].value == pytest.approx(expected, abs=1e-12)


def test_score_teams_reports_offending_team():
    bits = np.ones((3, 6), dtype=bool)
    bits[2, :3] = False
    cm = make_cm(bits)
    pool = random_pool(1, 3, 6, 3)  # probs irrelevant for CK
    teams = [make_team([0, 1], 3), make_team([0, 2], 3)]
    with pytest.raises(UndefinedDiversityError, match="team 01"):
        score_teams(pool, cm, teams, ["CK"], ScoreConfig())


def test_select_and_evaluate_end_to_end():
    pool = random_pool(77, 5, 80, 4)
    cm = correctness(pool)
    report = select_and_evaluate(pool, cm, "sq", k=3)
    assert report.metric == "SQ"
    assert len(report.rows) == 3
    assert [r.rank for r in report.rows] == [1, 2, 3]

    teams = list(enumerate_teams(5))
    scores = score_teams(pool, cm, teams, ["SQ"], ScoreConfig())["SQ"]
    expected_order = rank_teams(
        score_column({t.team_key: scores[t.team_key].value for t in teams}, "SQ"), 3)
    for row, entry in zip(report.rows, expected_order):
        assert row.team_key == entry.team.team_key
        assert row.score == entry.score
        members = list(entry.team.member_ids)
        expected_acc = float(
            np.mean(np.asarray(ref.soft_vote_labels(pool.probs, members)) == pool.truth)
        )
        assert row.ensemble_accuracy == pytest.approx(expected_acc, abs=0)
        best = max(model_accuracy(cm, m) for m in members)
        assert row.best_single_accuracy == pytest.approx(best, abs=0)
        assert row.improvement == pytest.approx(row.ensemble_accuracy - best, abs=0)


def test_improvement_arithmetic_headline_values():
    row = SelectionRow(
        rank=1, team_key="139", metric="SQ", score=1.9,
        ensemble_accuracy=0.9980, best_single_accuracy=0.9915,
        improvement=0.9980 - 0.9915,
    )
    assert row.improvement == pytest.approx(0.0065, abs=1e-12)


def test_zero_improvement_when_consensus_equals_best_member():
    probs = np.zeros((2, 10, 2))
    truth = [0, 1] * 5
    for j, t in enumerate(truth):
        probs[:, j, t] = 0.9
        probs[:, j, 1 - t] = 0.1
    # identical members wrong on the last sample: ensemble == single model
    probs[:, 9] = (0.9, 0.1)
    pool = pool_from_probs(probs, truth)
    cm = correctness(pool)
    report = select_and_evaluate(pool, cm, "BD", k=1)
    row = report.rows[0]
    assert row.ensemble_accuracy == row.best_single_accuracy
    assert row.improvement == 0.0


def test_report_csv_shape(tmp_path):
    manifest = write_pool(random_pool(5, 4, 30, 3), tmp_path / "pool")
    out = tmp_path / "sel"
    code = main(["select", "--pool", str(manifest), "--metric", "kw", "--topk", "4",
                 "--consensus", "majority", "--out", str(out)])
    assert code == 0
    text = (out / "selection_kw.csv").read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == "rank,team,metric,score,ensemble_acc,best_single_acc,improvement"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "KW"
    assert 0.0 <= float(first[4]) <= 1.0
