import numpy as np
import pytest

from sqdiv.pool import correctness, load_pool, write_pool
from sqdiv.synth import SynthSpec, contiguous_groups, default_spec, generate, planted_best_team
from sqdiv.teams import consensus


def spec_with(**overrides):
    base = dict(
        n_models=4, n_samples=500, n_classes=5,
        base_accuracy=(0.9, 0.9, 0.9, 0.9),
        groups=((0, 1), (2, 3)),
        rho=0.5, complement_strength=0.5, peak_mass=0.8, seed=0,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_rho_one_single_group_gives_identical_columns():
    spec = spec_with(groups=((0, 1, 2, 3),), rho=1.0, complement_strength=0.0)
    cm = correctness(generate(spec))
    for i in range(1, 4):
        assert np.array_equal(cm.bits[0], cm.bits[i])


def test_independent_setting_has_near_zero_correlation():
    spec = spec_with(
        n_samples=10_000, rho=0.0, complement_strength=0.0,
        groups=((0, 1), (2, 3)), seed=3,
    )
    bits = correctness(generate(spec)).bits.astype(float)
    for a in range(4):
        for b in range(a + 1, 4):
            r = np.corrcoef(bits[a], bits[b])[0, 1]
            assert abs(r) < 0.05


def test_marginal_accuracy_matches_base_accuracy():
    spec = spec_with(n_samples=10_000, seed=5)
    cm = correctness(generate(spec))
    for i in range(4):
        assert cm.bits[i].mean() == pytest.approx(0.9, abs=0.01)


def test_determinism_and_seed_sensitivity():
    a = generate(spec_with(seed=11))
    b = generate(spec_with(seed=11))
    c = generate(spec_with(seed=12))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_generated_pool_survives_round_trip(tmp_path):
    pool = generate(spec_with(n_samples=40))
    again = load_pool(write_pool(pool, tmp_path))
    assert again.fingerprint() == pool.fingerprint()


def test_planted_team_examples():
    spec = spec_with(
        n_models=6,
        base_accuracy=(0.90, 0.95, 0.93, 0.91, 0.96, 0.92),
        groups=((0, 1, 2), (3, 4, 5)),
    )
    assert planted_best_team(spec).member_ids == (1, 4)

    singletons = spec_with(
        n_models=3, base_accuracy=(0.9, 0.9, 0.9),
        groups=((0,), (1,), (2,)), complement_strength=0.3,
    )
    assert planted_best_team(singletons).member_ids == (0, 1, 2)

    asym = spec_with(
        n_models=5,
        base_accuracy=(0.88, 0.94, 0.91, 0.97, 0.90),
        groups=((0,), (1, 2), (3, 4)),
    )
    # recomputable from the spec alone: argmax accuracy per group
    assert asym.base_accuracy[1] > asym.base_accuracy[2]
    assert asym.base_accuracy[3] > asym.base_accuracy[4]
    assert planted_best_team(asym).member_ids == (0, 1, 3)


def test_planted_team_accuracy_tie_goes_to_lower_id():
    spec = spec_with(base_accuracy=(0.9, 0.9, 0.9, 0.9))
    assert planted_best_team(spec).member_ids == (0, 2)


def test_planted_team_rejects_degenerate_specs():
    single = spec_with(groups=((0, 1, 2, 3),))
    with pytest.raises(ValueError, match="2 groups"):
        planted_best_team(single)
    uncoupled = spec_with(complement_strength=0.0)
    with pytest.raises(ValueError, match="complement_strength"):
        planted_best_team(uncoupled)


def test_spec_validation():
    with pytest.raises(ValueError, match="partition"):
        spec_with(groups=((0, 1), (1, 2, 3)))
    with pytest.raises(ValueError, match="partition"):
        spec_with(groups=((0, 1), (2,)))
    with pytest.raises(ValueError, match="base_accuracy"):
        spec_with(base_accuracy=(0.9, 0.9))
    with pytest.raises(ValueError, match="strictly in"):
        spec_with(base_accuracy=(1.0, 0.9, 0.9, 0.9))
    with pytest.raises(ValueError, match="rho"):
        spec_with(rho=1.5)
    with pytest.raises(ValueError, match="peak_mass"):
        spec_with(peak_mass=0.1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        spec_with(seed=-1)
    with pytest.raises(ValueError, match="infeasible"):
        spec_with(
            n_models=4, base_accuracy=(0.5, 0.9, 0.9, 0.9),
            groups=((0,), (1,), (2,), (3,)), complement_strength=1.0,
        )
    with pytest.raises(ValueError):
        contiguous_groups(4, 9)


def test_default_spec_shape():
    spec = default_spec(n_models=10, n_groups=3)
    assert spec.groups == ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert spec.base_accuracy[0] == pytest.approx(0.85)
    assert spec.base_accuracy[-1] == pytest.approx(0.95)


def test_accuracy_monotone_in_complement_strength():
    accs = []
    for strength in (0.0, 0.3, 0.6, 0.9):
        spec = default_spec(
            n_models=6, n_samples=5000, n_classes=8, n_groups=3,
            complement_strength=strength, seed=2,
        )
        pool = generate(spec)
        team_spec = default_spec(
            n_models=6, n_samples=5000, n_classes=8, n_groups=3,
            complement_strength=max(strength, 0.1), seed=2,
        )
        team = planted_best_team(team_spec)
        accs.append(consensus(pool, team).accuracy)
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    assert accs[-1] > accs[0]


def test_probability_rows_valid_and_peaked():
    spec = spec_with(n_samples=200, peak_mass=0.7, n_classes=6)
    pool = generate(spec)
    sums = pool.probs.sum(axis=2)
    assert np.abs(sums - 1.0).max() < 1e-9
    peaks = pool.probs.max(axis=2)
    assert peaks.max() <= 0.7 + 1e-12
    assert peaks.min() > 1.0 / 6.0
