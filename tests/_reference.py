"""Naive pure-Python reference implementations used as test oracles.

Everything here is written as direct per-sample loops, independent of the
library's vectorized paths, so agreement between the two is meaningful.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations


def contingency(row_a, row_b, subset):
    n11 = n10 = n01 = n00 = 0
    for j in subset:
        a, b = bool(row_a[j]), bool(row_b[j])
        if a and b:
            n11 += 1
        elif a and not b:
            n10 += 1
        elif b:
            n01 += 1
        else:
            n00 += 1
    return n11, n10, n01, n00


def ck_diversity(bits, members, subset):
    values = []
    for a, b in combinations(members, 2):
        n11, n10, n01, n00 = contingency(bits[a], bits[b], subset)
        den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
        kappa = 1.0 if den == 0 else 2.0 * (n11 * n00 - n01 * n10) / den
        values.append(1.0 - kappa)
    return sum(values) / len(values)


def q_statistic(bits, members, subset):
    values = []
    for a, b in combinations(members, 2):
        n11, n10, n01, n00 = contingency(bits[a], bits[b], subset)
        den = n11 * n00 + n01 * n10
        values.append(0.0 if den == 0 else (n11 * n00 - n01 * n10) / den)
    return sum(values) / len(values)


def binary_disagreement(bits, members, subset):
    values = []
    for a, b in combinations(members, 2):
        n11, n10, n01, n00 = contingency(bits[a], bits[b], subset)
        values.append((n10 + n01) / len(subset))
    return sum(values) / len(values)


def generalized_diversity(bits, members, subset):
    m = len(members)
    fail_counts = [sum(1 for i in members if not bits[i][j]) for j in subset]
    p1 = sum(k / m for k in fail_counts) / len(subset)
    if p1 == 0.0:
        return 0.0
    p2 = sum(k * (k - 1) / (m * (m - 1)) for k in fail_counts) / len(subset)
    return 1.0 - p2 / p1


def kohavi_wolpert(bits, members, subset):
    m = len(members)
    total = 0
    for j in subset:
        correct = sum(1 for i in members if bits[i][j])
        total += correct * (m - correct)
    return total / (len(subset) * m * m)


def multiclass_kappa(labels_a, labels_b, n_classes):
    n = len(labels_a)
    p_o = sum(1 for x, y in zip(labels_a, labels_b) if x == y) / n
    p_e = sum(
        (sum(1 for x in labels_a if x == c) / n) * (sum(1 for y in labels_b if y == c) / n)
        for c in range(n_classes)
    )
    if p_e >= 1.0:
        return 1.0 if p_o >= 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def sq_breakdown(labels, bits, members, n_classes, w_epsilon=1.0, w_alpha=1.0,
                 alpha_on_labels=True):
    """Uncapped full-negative-set synergy breakdown.

    Returns (evaluated, skipped, aggregate) where evaluated maps focal id to
    (negative_count, epsilon, alpha, combined).
    """
    n_samples = len(bits[members[0]])
    evaluated, skipped = {}, set()
    for focal in members:
        neg = [j for j in range(n_samples) if not bits[focal][j]]
        if not neg:
            skipped.add(focal)
            continue
        others = [i for i in members if i != focal]
        eps_terms = [
            sum(1 for j in neg if bool(bits[i][j]) != bool(bits[focal][j])) / len(neg)
            for i in others
        ]
        eps = sum(eps_terms) / len(eps_terms)
        if len(others) < 2:
            alpha = 0.0
        else:
            kappas = []
            for a, b in combinations(others, 2):
                if alpha_on_labels:
                    va = [labels[a][j] for j in neg]
                    vb = [labels[b][j] for j in neg]
                    kappas.append(multiclass_kappa(va, vb, n_classes))
                else:
                    va = [int(bool(bits[a][j])) for j in neg]
                    vb = [int(bool(bits[b][j])) for j in neg]
                    kappas.append(multiclass_kappa(va, vb, 2))
            alpha = sum(kappas) / len(kappas)
        evaluated[focal] = (len(neg), eps, alpha, w_epsilon * eps + w_alpha * alpha)
    if evaluated:
        aggregate = sum(v[3] for v in evaluated.values()) / len(evaluated)
    else:
        aggregate = 0.0
    return evaluated, skipped, aggregate


def soft_vote_labels(probs, members):
    n_samples = len(probs[members[0]])
    n_classes = len(probs[members[0]][0])
    out = []
    for j in range(n_samples):
        avg = [
            sum(probs[i][j][c] for i in members) / len(members)
            for c in range(n_classes)
        ]
        best = 0
        for c in range(1, n_classes):
            if avg[c] > avg[best]:
                best = c
        out.append(best)
    return out


def majority_vote_labels(probs, members):
    n_samples = len(probs[members[0]])
    n_classes = len(probs[members[0]][0])
    out = []
    for j in range(n_samples):
        votes = [0] * n_classes
        for i in members:
            row = probs[i][j]
            best = 0
            for c in range(1, n_classes):
                if row[c] > row[best]:
                    best = c
            votes[best] += 1
        top = max(votes)
        tied = [c for c in range(n_classes) if votes[c] == top]
        if len(tied) == 1:
            out.append(tied[0])
            continue
        summed = {c: sum(probs[i][j][c] for i in members) for c in tied}
        best = tied[0]
        for c in tied[1:]:
            if summed[c] > summed[best]:
                best = c
        out.append(best)
    return out


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return num / math.sqrt(vx * vy)


def write_pool_csv(pool, out_dir):
    """Row-by-row pool writer: csv.writer with repr(float(v)) per cell."""
    with (out_dir / "labels.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "true_label"])
        for sid, t in zip(pool.sample_ids, pool.truth):
            writer.writerow([sid, pool.classes[int(t)]])

    header = ["sample_id"] + [f"p_{c}" for c in pool.classes]
    entries = []
    for i, name in enumerate(pool.models):
        fname = f"model_{i:02d}.csv"
        with (out_dir / fname).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for j, sid in enumerate(pool.sample_ids):
                writer.writerow([sid] + [repr(float(v)) for v in pool.probs[i, j]])
        entries.append({"id": i, "name": name, "predictions_path": fname})

    manifest = {"classes": list(pool.classes), "labels_path": "labels.csv", "models": entries}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
