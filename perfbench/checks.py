"""Output checks: re-score a seeded sample of teams from the CLI artifacts
with the naive oracles in tests/_reference.py (imported, never edited).

Every function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math

import numpy as np

TOL = 1e-12
# Correlations are sums over thousands of teams taken in another order than
# the oracle's, so they are compared at a looser, still tight, tolerance.
CORR_TOL = 1e-9
TEAMS_PER_METRIC = 2


def load_reference(root):
    path = root / "tests" / "_reference.py"
    spec = importlib.util.spec_from_file_location("sqdiv_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Oracle:
    """The oracles applied to one in-memory pool, with per-team caching."""

    def __init__(self, ref, pool):
        self.ref = ref
        self.probs = pool.probs
        self.truth = pool.truth
        self.n_classes = pool.n_classes
        self.labels = np.argmax(pool.probs, axis=2)
        self.bits = self.labels == pool.truth[None, :]
        self._acc = {}

    def _rows(self, array, members):
        return {m: array[m].tolist() for m in members}

    def score(self, metric, members):
        """Score on the team's full negative set (no --neg-cap)."""
        members = list(members)
        bits = self._rows(self.bits, members)
        if metric == "SQ":
            labels = self._rows(self.labels, members)
            return self.ref.sq_breakdown(labels, bits, members, self.n_classes)[2]
        subset = np.flatnonzero(~self.bits[members].all(axis=0)).tolist()
        fn = {
            "CK": self.ref.ck_diversity,
            "QS": self.ref.q_statistic,
            "BD": self.ref.binary_disagreement,
            "GD": self.ref.generalized_diversity,
            "KW": self.ref.kohavi_wolpert,
        }[metric]
        return fn(bits, members, subset)

    def accuracy(self, members):
        """Soft-vote consensus accuracy."""
        key = tuple(members)
        if key not in self._acc:
            predicted = self.ref.soft_vote_labels(self._rows(self.probs, members), list(members))
            truth = self.truth.tolist()
            self._acc[key] = sum(p == t for p, t in zip(predicted, truth)) / len(truth)
        return self._acc[key]

    def best_single(self, members):
        return max(float(self.bits[m].mean()) for m in members)


def _members(key):
    return [int(p) for p in (key.split("-") if "-" in key else key)]


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(name, got, want, tol=TOL):
    if not math.isclose(got, want, rel_tol=0.0, abs_tol=tol):
        return [f"{name}: artifact {got!r} != oracle {want!r}"]
    return []


def check_evaluate(out_dir, oracle, metrics, n_teams, rng):
    """scatter_<m>.csv and correlations.json of one `sqdiv evaluate`."""
    errors = []
    accuracies = None
    correlations = json.loads((out_dir / "correlations.json").read_text(encoding="utf-8"))
    for metric in metrics:
        rows = _read_rows(out_dir / f"scatter_{metric.lower()}.csv")
        if len(rows) != n_teams:
            errors.append(f"scatter_{metric.lower()}.csv has {len(rows)} teams, want {n_teams}")
            continue
        scores = [float(r["score"]) for r in rows]
        accs = [float(r["accuracy"]) for r in rows]
        if accuracies is None:
            accuracies = accs
        elif accs != accuracies:
            errors.append(f"scatter_{metric.lower()}.csv accuracies differ between metrics")
        for i in rng.choice(len(rows), size=TEAMS_PER_METRIC, replace=False):
            row = rows[int(i)]
            members = _members(row["team"])
            label = f"{metric} team {row['team']}"
            errors += _close(f"{label} score", float(row["score"]), oracle.score(metric, members))
            errors += _close(f"{label} accuracy", float(row["accuracy"]), oracle.accuracy(members))
        errors += _close(f"{metric} correlation", correlations[metric],
                         oracle.ref.pearson(scores, accs), CORR_TOL)
    return errors


def check_select(path, oracle, metric, topk, n_teams, rng):
    """selection_<m>.csv of one `sqdiv select` (descending-score metrics)."""
    errors = []
    rows = _read_rows(path)
    if len(rows) != min(topk, n_teams):
        return [f"{path.name} has {len(rows)} rows, want {min(topk, n_teams)}"]
    order = [(-float(r["score"]), len(_members(r["team"])), r["team"]) for r in rows]
    if order != sorted(order) or [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        errors.append(f"{path.name} rows are not in rank order")
    for i in rng.choice(len(rows), size=min(TEAMS_PER_METRIC, len(rows)), replace=False):
        row = rows[int(i)]
        members = _members(row["team"])
        label = f"select {metric} team {row['team']}"
        acc = oracle.accuracy(members)
        best = oracle.best_single(members)
        errors += _close(f"{label} score", float(row["score"]), oracle.score(metric, members))
        errors += _close(f"{label} ensemble_acc", float(row["ensemble_acc"]), acc)
        errors += _close(f"{label} best_single_acc", float(row["best_single_acc"]), best)
        errors += _close(f"{label} improvement", float(row["improvement"]), acc - best)
    return errors
