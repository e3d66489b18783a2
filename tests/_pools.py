"""Builders for small deterministic and random fixture pools."""

from __future__ import annotations

import numpy as np

from sqdiv.pool import CorrectnessMatrix, PredictionPool
from sqdiv.scoring import ScoreColumn
from sqdiv.teams import parse_team_key


def make_cm(rows):
    """Wrap raw correctness rows for metric tests that need no pool."""
    return CorrectnessMatrix(bits=np.asarray(rows, dtype=bool))


def pool_from_probs(probs, truth, classes=None, sample_ids=None):
    probs = np.asarray(probs, dtype=np.float64)
    m, n, c = probs.shape
    return PredictionPool(
        models=tuple(f"m{i}" for i in range(m)),
        classes=tuple(classes) if classes else tuple(f"c{k}" for k in range(c)),
        sample_ids=tuple(sample_ids) if sample_ids else tuple(f"s{j}" for j in range(n)),
        truth=np.asarray(truth, dtype=np.int64),
        probs=probs,
    )


def pool_from_labels(labels, truth, n_classes, peak=0.8):
    """Pool whose argmax predictions equal the given label matrix exactly."""
    labels = np.asarray(labels, dtype=np.int64)
    m, n = labels.shape
    probs = np.full((m, n, n_classes), (1.0 - peak) / (n_classes - 1))
    np.put_along_axis(probs, labels[:, :, None], peak, axis=2)
    return pool_from_probs(probs, truth)


def random_pool(seed, n_models, n_samples, n_classes):
    rng = np.random.default_rng(seed)
    raw = rng.random((n_models, n_samples, n_classes)) + 1e-3
    probs = raw / raw.sum(axis=2, keepdims=True)
    truth = rng.integers(0, n_classes, size=n_samples)
    return pool_from_probs(probs, truth)


def score_column(scores, metric):
    """A ScoreColumn of hand-written {team key: score}, in the map's order,
    each team's size read from its key."""
    keys = tuple(scores)
    sizes = np.array([len(parse_team_key(key)) for key in keys], dtype=np.int64)
    return ScoreColumn(metric, keys, sizes, np.array(list(scores.values()), dtype=np.float64))
