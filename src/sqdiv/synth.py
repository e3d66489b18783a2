"""Synthetic prediction pools with controlled accuracy and error structure.

Generation is correctness-first. Every sample draws a "victim" archetype
group; a model's conditional failure rate is raised on its own group's
victim samples and lowered elsewhere, calibrated so its marginal accuracy
equals base_accuracy exactly:

    P(fail | victim)     = (1 - acc) * (1 + strength * (G - 1))
    P(fail | not victim) = (1 - acc) * (1 - strength)

With complement_strength near 1 a group's failures concentrate on samples
where every other group is almost surely right, so one-member-per-group
teams are maximally complementary. Within a group, failures are coupled
through a shared per-sample uniform mixed in with weight rho.

Probabilities then peak on each model's emitted label. The peak is drawn
per prediction from [(1/C + peak_mass)/2, peak_mass) so member confidence
varies and soft voting is not just majority voting in disguise; the argmax
always stays on the emitted label, so the planted correctness is exact.

The random stream layout is fixed (victims, shared noise, mixing coins,
own noise, truth, wrong-label offsets, confidences), so two specs differing
only in rho or complement_strength share all draws. That makes raising
complement_strength a common-random-numbers comparison: the planted team's
accuracy is monotone in it on any reasonably sized pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pool import PredictionPool
from .teams import _whole, make_team


@dataclass(frozen=True)
class SynthSpec:
    n_models: int
    n_samples: int
    n_classes: int
    base_accuracy: tuple[float, ...]
    groups: tuple[tuple[int, ...], ...]
    rho: float = 0.8
    complement_strength: float = 0.7
    peak_mass: float = 0.8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "base_accuracy", tuple(float(a) for a in self.base_accuracy))
        object.__setattr__(
            self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups)
        )
        for name, least in (("n_models", 2), ("n_samples", 1), ("n_classes", 2), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        if len(self.base_accuracy) != self.n_models:
            raise ValueError("base_accuracy must list one value per model")
        if any(not 0.0 < a < 1.0 for a in self.base_accuracy):
            raise ValueError("base_accuracy values must lie strictly in (0, 1)")
        flat = [i for g in self.groups for i in g]
        if sorted(flat) != list(range(self.n_models)):
            raise ValueError("groups must partition the models exactly once")
        if any(len(g) == 0 for g in self.groups):
            raise ValueError("groups must be non-empty")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if not 0.0 <= self.complement_strength <= 1.0:
            raise ValueError("complement_strength must lie in [0, 1]")
        if not 1.0 / self.n_classes < self.peak_mass <= 1.0:
            raise ValueError("peak_mass must lie in (1/C, 1]")
        boost = 1.0 + self.complement_strength * (len(self.groups) - 1)
        worst = max(1.0 - a for a in self.base_accuracy) * boost
        if worst > 1.0:
            raise ValueError(
                "infeasible spec: victim-sample failure rate would exceed 1 "
                f"({worst:.3f}); lower complement_strength or raise accuracy"
            )


def contiguous_groups(n_models, n_groups):
    """Split model ids 0..M-1 into n_groups contiguous, near-equal groups."""
    n_groups = _whole(n_groups, "n_groups", 1, n_models)
    return tuple(
        tuple(int(i) for i in chunk)
        for chunk in np.array_split(np.arange(n_models), n_groups)
    )


def default_spec(n_models=10, n_samples=5000, n_classes=15, n_groups=3,
                 acc_low=0.85, acc_high=0.95, rho=0.8, complement_strength=0.7,
                 peak_mass=0.8, seed=0):
    """Evenly spread accuracies and contiguous equal-ish groups."""
    accs = tuple(float(a) for a in np.linspace(acc_low, acc_high, n_models))
    groups = contiguous_groups(n_models, n_groups)
    return SynthSpec(
        n_models=n_models, n_samples=n_samples, n_classes=n_classes,
        base_accuracy=accs, groups=groups, rho=rho,
        complement_strength=complement_strength, peak_mass=peak_mass, seed=seed,
    )


def generate(spec):
    """Build a validated pool from the spec; deterministic given the seed."""
    m, n, c = spec.n_models, spec.n_samples, spec.n_classes
    n_groups = len(spec.groups)
    group_of = np.empty(m, dtype=np.int64)
    for g, members in enumerate(spec.groups):
        group_of[list(members)] = g

    rng = np.random.default_rng(spec.seed)
    victims = rng.integers(0, n_groups, size=n)
    shared = rng.random((n_groups, n))
    mixing = rng.random((m, n))
    own = rng.random((m, n))
    truth = rng.integers(0, c, size=n)
    offsets = rng.integers(1, c, size=(m, n))
    low = (1.0 / c + spec.peak_mass) / 2.0
    confidence = rng.uniform(low, spec.peak_mass, size=(m, n))

    z = np.where(mixing < spec.rho, shared[group_of], own)
    fail_rate = 1.0 - np.asarray(spec.base_accuracy)
    boost = 1.0 + spec.complement_strength * (n_groups - 1)
    ease = 1.0 - spec.complement_strength
    on_victim = victims[None, :] == group_of[:, None]
    threshold = np.where(on_victim, (fail_rate * boost)[:, None], (fail_rate * ease)[:, None])
    wrong = z < threshold

    labels = np.where(wrong, (truth[None, :] + offsets) % c, truth[None, :])
    probs = np.empty((m, n, c), dtype=np.float64)
    probs[:] = ((1.0 - confidence) / (c - 1))[:, :, None]
    np.put_along_axis(probs, labels[:, :, None], confidence[:, :, None], axis=2)

    return PredictionPool(
        models=tuple(f"synth-{i:02d}" for i in range(m)),
        classes=tuple(f"c{k:02d}" for k in range(c)),
        sample_ids=tuple(f"s{j:05d}" for j in range(n)),
        truth=truth,
        probs=probs,
    )


def planted_best_team(spec):
    """The cross-group team the construction makes maximally complementary:
    the most accurate member of each group (ties to the lower id)."""
    if len(spec.groups) < 2:
        raise ValueError("planted team needs at least 2 groups")
    if spec.complement_strength <= 0.0:
        raise ValueError("planted team needs complement_strength > 0")
    picks = []
    for members in spec.groups:
        best = max(members, key=lambda i: (spec.base_accuracy[i], -i))
        picks.append(best)
    return make_team(picks, spec.n_models)
