"""Acceptance suite: one test per top-level criterion, each printing a
[PASS]/[FAIL] line (run with -s to see them alongside the pytest report).

The heavyweight planted-structure experiment (20 seeded pools of 10 models,
5000 samples, 15 classes) is computed once and shared by the correlation
and selection-quality criteria.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

import _reference as ref
from _pools import pool_from_labels, pool_from_probs, random_pool, score_column
from sqdiv.analytics import pearson
from sqdiv.pool import correctness, load_pool, model_accuracy, write_pool
from sqdiv.qmetrics import negative_samples
from sqdiv.scoring import ScoreConfig, classical_scores, score_team, score_teams
from sqdiv.selection import rank_teams
from sqdiv.synth import default_spec, generate
from sqdiv.teams import (
    MAJORITY,
    SOFT,
    consensus,
    count_teams,
    enumerate_teams,
    make_team,
    team_accuracy_table,
)

TOL = 1e-12


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


# --- shared planted-structure experiment --------------------------------------

@dataclass
class SeedOutcome:
    correlations: dict
    top1_accuracy: dict
    best_single: float


@pytest.fixture(scope="module")
def planted_experiment():
    start = time.monotonic()
    outcomes = []
    for seed in range(20):
        spec = default_spec(
            n_models=10, n_samples=5000, n_classes=15, n_groups=3,
            acc_low=0.85, acc_high=0.95, rho=0.8, complement_strength=0.7,
            seed=seed,
        )
        pool = generate(spec)
        cm = correctness(pool)
        teams = list(enumerate_teams(10))
        scores = score_teams(pool, cm, teams, ["CK", "BD", "KW", "SQ"], ScoreConfig())
        accuracy = dict(zip([t.team_key for t in teams], team_accuracy_table(pool, teams).tolist()))
        accs = [accuracy[t.team_key] for t in teams]
        correlations = {
            metric: pearson([scores[metric][t.team_key].value for t in teams], accs)
            for metric in ("CK", "BD", "KW", "SQ")
        }
        top1 = {}
        for metric in ("CK", "SQ"):
            entry = rank_teams(scores[metric], 1)[0]
            top1[metric] = accuracy[entry.team.team_key]
        best = max(model_accuracy(cm, i) for i in range(10))
        outcomes.append(SeedOutcome(correlations, top1, best))
    return outcomes, time.monotonic() - start


# --- criteria ------------------------------------------------------------------

def test_metric_oracle_equivalence():
    name = "metric oracle equivalence (200 random pools, 1e-12)"
    with criterion(name):
        start = time.monotonic()
        rng = np.random.default_rng(20240999)
        for trial in range(200):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(3, 51))
            c = int(rng.integers(2, 5))
            pool = random_pool(int(rng.integers(0, 2**32)), m, n, c)
            cm = correctness(pool)
            size = int(rng.integers(2, m + 1))
            members = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
            team = make_team(members, m)
            bits = cm.bits

            subset = [j for j in range(n) if any(not bits[i][j] for i in members)]
            if subset:
                oracles = {
                    "CK": ref.ck_diversity,
                    "QS": ref.q_statistic,
                    "BD": ref.binary_disagreement,
                    "GD": ref.generalized_diversity,
                    "KW": ref.kohavi_wolpert,
                }
                got = classical_scores(bits[list(members)][:, subset], list(oracles))
                for metric, oracle in oracles.items():
                    want = oracle(bits, members, subset)
                    assert got[metric].value == pytest.approx(want, abs=TOL), metric

            breakdown = score_team(pool, cm, team, "SQ").detail
            evaluated, skipped, aggregate = ref.sq_breakdown(
                pool.predicted_labels(), bits, list(members), pool.n_classes
            )
            assert breakdown.skipped_focals == frozenset(skipped)
            assert breakdown.aggregate == pytest.approx(aggregate, abs=TOL)
            for focal in breakdown.per_focal:
                count, eps, alpha, _ = evaluated[focal.focal_id]
                assert focal.negative_count == count
                assert focal.sq_epsilon == pytest.approx(eps, abs=TOL)
                assert focal.sq_alpha == pytest.approx(alpha, abs=TOL)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_degenerate_team_suite():
    name = "degenerate teams (clones, complements, all-correct)"
    with criterion(name):
        # clones of a model that errs on some samples but not all
        row = [0, 0, 0, 1, 1, 0]  # predicted labels; truth mixes hits and misses
        pool = pool_from_labels([row, row, row], truth=(0, 1, 0, 1, 0, 0), n_classes=2)
        cm = correctness(pool)
        clones = classical_scores(cm.bits, ["BD", "GD", "KW", "QS", "CK"])
        assert clones["BD"].value == 0.0
        assert clones["GD"].value == 0.0
        assert clones["KW"].value == 0.0
        assert clones["QS"].value == 1.0
        assert clones["CK"].value == 0.0

        # complementary pair: exactly one member correct on every sample
        comp = pool_from_labels(
            [(0, 1, 1, 0), (1, 0, 0, 1)], truth=(0, 0, 1, 1), n_classes=2
        )
        assert classical_scores(correctness(comp).bits, ["BD"])["BD"].value == 1.0

        # all-correct team: empty negative sets, synergy aggregate 0 + flag
        perfect = pool_from_labels(
            [(0, 1, 0), (0, 1, 0)], truth=(0, 1, 0), n_classes=2
        )
        perfect_cm = correctness(perfect)
        pair = make_team([0, 1], 2)
        assert len(negative_samples(perfect_cm, pair)) == 0
        assert len(negative_samples(perfect_cm, pair, focal_id=0)) == 0
        breakdown = score_team(perfect, perfect_cm, pair, "SQ").detail
        assert breakdown.aggregate == 0.0
        assert breakdown.all_skipped
        assert breakdown.skipped_focals == frozenset({0, 1})


def test_sq_epsilon_identity_100_triples():
    name = "sq-epsilon identity on 100 fuzzed (pool, team, focal) triples"
    with criterion(name):
        rng = np.random.default_rng(77)
        done = 0
        while done < 100:
            m = int(rng.integers(2, 6))
            pool = random_pool(int(rng.integers(0, 2**32)), m, int(rng.integers(4, 40)),
                               int(rng.integers(2, 5)))
            cm = correctness(pool)
            size = int(rng.integers(2, m + 1))
            members = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
            team = make_team(members, m)
            focal = int(members[int(rng.integers(0, size))])
            neg = negative_samples(cm, team, focal_id=focal)
            if len(neg) == 0:
                continue
            idx = list(neg.sample_indices)
            others = [i for i in members if i != focal]
            mean_acc = float(np.mean([cm.bits[i][idx].mean() for i in others]))
            breakdown = score_team(pool, cm, team, "SQ").detail
            via_bd = {f.focal_id: f.sq_epsilon for f in breakdown.per_focal}[focal]
            assert via_bd == pytest.approx(mean_acc, abs=TOL)
            done += 1


def test_planted_synergy_correlations(planted_experiment):
    name = "planted synergy: SQ correlation beats CK/BD/KW in >=18/20 seeds"
    with criterion(name):
        outcomes, elapsed = planted_experiment
        wins = 0
        for outcome in outcomes:
            r = outcome.correlations
            if r["SQ"] > r["CK"] and r["SQ"] > r["BD"] and r["SQ"] > r["KW"] and r["SQ"] >= 0.3:
                wins += 1
        assert wins >= 18, f"only {wins}/20 seeds favored the synergy metric"
        assert elapsed < 300.0, f"experiment took {elapsed:.0f}s"


def test_selection_quality(planted_experiment):
    name = "selection quality: SQ top-1 vs best single and CK top-1"
    with criterion(name):
        outcomes, _ = planted_experiment
        beats_single = sum(
            1 for o in outcomes if o.top1_accuracy["SQ"] >= o.best_single
        )
        beats_ck = sum(
            1 for o in outcomes if o.top1_accuracy["SQ"] >= o.top1_accuracy["CK"]
        )
        assert beats_single >= 18, f"SQ top-1 beat the best single in {beats_single}/20"
        assert beats_ck >= 15, f"SQ top-1 beat CK top-1 in {beats_ck}/20"


def test_tie_breaking_smaller_team_first():
    name = "tie-breaking: smaller team outranks larger at equal score"
    with criterion(name):
        ranked = rank_teams(score_column({"068": 0.8, "0678": 0.8}, "CK"), k=2)
        assert ranked[0].team.team_key == "068"
        assert ranked[0].rank == 1
        assert ranked[1].team.team_key == "0678"


def test_enumeration_counts_exact():
    name = "enumeration counts: M=10 -> 1013 teams, M=4 -> 11"
    with criterion(name):
        assert count_teams(10) == 1013
        assert count_teams(4) == 11


def test_consensus_equivalence_and_rescale():
    name = "consensus equals naive references on 100 fuzzed pools"
    with criterion(name):
        rng = np.random.default_rng(4242)
        for trial in range(100):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 30))
            c = int(rng.integers(2, 5))
            seed = int(rng.integers(0, 2**32))
            pool = random_pool(seed, m, n, c)
            size = int(rng.integers(2, m + 1))
            members = sorted(rng.choice(m, size=size, replace=False).tolist())
            team = make_team(members, m)
            assert consensus(pool, team, SOFT).predicted.tolist() == ref.soft_vote_labels(
                pool.probs, members
            )
            assert consensus(pool, team, MAJORITY).predicted.tolist() == ref.majority_vote_labels(
                pool.probs, members
            )

            scale = float(rng.uniform(0.2, 8.0))
            gen = np.random.default_rng(seed)
            raw = gen.random((m, n, c)) + 1e-3
            truth = gen.integers(0, c, size=n)
            scaled_raw = raw * scale
            scaled = pool_from_probs(
                scaled_raw / scaled_raw.sum(axis=2, keepdims=True), truth
            )
            assert np.array_equal(
                consensus(pool, team, SOFT).predicted, consensus(scaled, team, SOFT).predicted
            )


def test_determinism_and_round_trip(tmp_path, package_env):
    name = "determinism: pool round trip + byte-identical CLI runs"
    with criterion(name):
        pool = generate(default_spec(n_models=5, n_samples=200, n_classes=4,
                                     n_groups=2, seed=31))
        again = load_pool(write_pool(pool, tmp_path / "rt"))
        assert again.fingerprint() == pool.fingerprint()

        pipelines = []
        for run_dir in (tmp_path / "run1", tmp_path / "run2"):
            run_dir.mkdir()
            transcript = {}
            steps = [
                ("simulate", ["simulate", "--models", "6", "--samples", "300",
                              "--classes", "5", "--groups", "3", "--seed", "13",
                              "--out", "pool"]),
                ("evaluate", ["evaluate", "--pool", "pool/manifest.json",
                              "--out", "eval"]),
                ("select", ["select", "--pool", "pool/manifest.json",
                            "--metric", "sq", "--topk", "5", "--out", "sel"]),
                ("inspect", ["inspect", "--pool", "pool/manifest.json",
                             "--team", "024", "--sample", "s00007",
                             "--out", "case"]),
            ]
            for label, argv in steps:
                proc = subprocess.run(
                    [sys.executable, "-m", "sqdiv", *argv],
                    cwd=run_dir, capture_output=True, env=package_env,
                )
                assert proc.returncode == 0, (label, proc.stderr.decode())
                transcript[label] = proc.stdout
            artifacts = {
                str(p.relative_to(run_dir)): p.read_bytes()
                for p in sorted(run_dir.rglob("*")) if p.is_file()
            }
            pipelines.append((transcript, artifacts))

        first, second = pipelines
        assert first[0] == second[0], "stdout differs between identical runs"
        assert first[1].keys() == second[1].keys()
        for path in first[1]:
            assert first[1][path] == second[1][path], f"artifact differs: {path}"

        report = json.loads((tmp_path / "run1" / "eval" / "correlations.json").read_text())
        assert set(report) == {"CK", "QS", "BD", "GD", "KW", "SQ"}
