import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _reference as ref
from _pools import make_cm
from sqdiv.qmetrics import (
    ANY_MEMBER_ERRS,
    FOCAL_ERRS,
    UndefinedDiversityError,
    gram,
    negative_samples,
)
from sqdiv.scoring import classical_scores

# Each classical metric with the name its parametrized tests are reported by.
METRIC_NAMES = {
    "CK": "cohen_kappa_diversity",
    "QS": "q_statistic",
    "BD": "binary_disagreement",
    "GD": "generalized_diversity",
    "KW": "kohavi_wolpert",
}


def scores(rows, members, subset):
    """classical_scores of every metric on the members' rows over the subset."""
    sub = np.asarray(rows, dtype=bool)[list(members)][:, list(subset)]
    return {metric: s.value for metric, s in classical_scores(sub, list(METRIC_NAMES)).items()}

bits_matrices = arrays(
    dtype=bool,
    shape=st.tuples(st.integers(2, 5), st.integers(1, 30)),
)


# --- negative sampling -------------------------------------------------------

def test_negative_samples_any_member():
    cm = make_cm([(1, 1, 0), (1, 0, 1)])
    neg = negative_samples(cm, (0, 1))
    assert neg.sample_indices == (1, 2)
    assert neg.mode == ANY_MEMBER_ERRS


def test_negative_samples_focal():
    cm = make_cm([(1, 1, 0), (1, 0, 1)])
    neg = negative_samples(cm, (0, 1), focal_id=0)
    assert neg.sample_indices == (2,)
    assert neg.focal_id == 0
    assert neg.mode == FOCAL_ERRS


def test_negative_samples_all_correct_is_empty():
    cm = make_cm([(1, 1, 1), (1, 1, 1)])
    assert negative_samples(cm, (0, 1)).sample_indices == ()
    assert negative_samples(cm, (0, 1), focal_id=1).sample_indices == ()


def test_negative_samples_cap_and_seed():
    rng = np.random.default_rng(3)
    cm = make_cm(rng.random((3, 200)) < 0.6)
    a = negative_samples(cm, (0, 1, 2), seed=11, cap=20)
    b = negative_samples(cm, (0, 1, 2), seed=11, cap=20)
    c = negative_samples(cm, (0, 1, 2), seed=12, cap=20)
    assert len(a) == 20
    assert a == b
    assert a != c
    full = set(negative_samples(cm, (0, 1, 2)).sample_indices)
    assert set(a.sample_indices) <= full
    assert list(a.sample_indices) == sorted(a.sample_indices)


def test_negative_samples_validation():
    cm = make_cm([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="outside the pool"):
        negative_samples(cm, (0, 5))
    # A focal id is checked as make_team checks a member id: 1.0 and True are
    # not model 1.
    for focal in (1.0, True, np.bool_(True), 1.5, -1, 2):
        with pytest.raises(ValueError):
            negative_samples(cm, (0, 1), focal_id=focal)
    assert negative_samples(cm, (0, 1), focal_id=np.int64(1)).focal_id == 1
    with pytest.raises(ValueError, match="^focal_id 2 is not a member of team"):
        negative_samples(make_cm([(1, 0), (0, 1), (0, 0)]), (0, 1), focal_id=2)
    # A focal_id alone decides the mode.
    with pytest.raises(TypeError, match="mode"):
        negative_samples(cm, (0, 1), mode=FOCAL_ERRS, focal_id=0)
    with pytest.raises(ValueError, match="cap"):
        negative_samples(cm, (0, 1), cap=0)


# --- contingency -------------------------------------------------------------

def pair_counts(rows, a, b):
    """(n11, n10, n01, n00) of a pair over all samples, read from the Gram
    matrix as classical_batch reads them."""
    bits = np.asarray(rows, dtype=bool)
    g = gram(bits)
    n11 = g[a, b]
    return n11, g[a, a] - n11, g[b, b] - n11, bits.shape[1] - g[a, a] - g[b, b] + n11


def test_pair_contingency_hand_example():
    assert pair_counts([(1, 1, 0, 0, 1), (1, 0, 1, 0, 1)], 0, 1) == (2, 1, 1, 1)


def test_pair_contingency_identical_and_complementary():
    rows = [(1, 0, 1), (1, 0, 1), (0, 1, 0)]
    _, n10, n01, _ = pair_counts(rows, 0, 1)
    assert n10 == n01 == 0
    n11, _, _, n00 = pair_counts(rows, 0, 2)
    assert n11 == n00 == 0


# --- frozen metric values ----------------------------------------------------

# pair with (n11, n10, n01, n00) = (2, 1, 1, 1) over 5 samples
CONTINGENCY_FIXTURE = [(1, 1, 0, 0, 1), (1, 0, 1, 0, 1)]


def test_ck_value():
    sub = np.asarray(CONTINGENCY_FIXTURE, dtype=bool)
    score = classical_scores(sub, ["CK"])["CK"]
    assert score.metric == "CK"
    assert score.value == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_ck_identical_members_zero():
    assert scores([(1, 0, 1, 1), (1, 0, 1, 1)], (0, 1), range(4))["CK"] == 0.0


def test_ck_team_is_pair_mean():
    rows = [(1, 1, 0, 0, 1), (1, 0, 1, 0, 1), (0, 1, 1, 0, 1)]
    subset = range(5)
    d01 = scores(rows, (0, 1), subset)["CK"]
    d02 = scores(rows, (0, 2), subset)["CK"]
    d12 = scores(rows, (1, 2), subset)["CK"]
    team = scores(rows, (0, 1, 2), subset)["CK"]
    assert team == pytest.approx((d01 + d02 + d12) / 3, abs=1e-12)


def test_qs_values():
    assert scores(CONTINGENCY_FIXTURE, (0, 1), range(5))["QS"] == pytest.approx(1 / 3, abs=1e-12)
    independent = [(1, 1, 0, 0), (1, 0, 1, 0)]
    assert scores(independent, (0, 1), range(4))["QS"] == 0.0
    identical = [(1, 0, 1, 1), (1, 0, 1, 1)]
    assert scores(identical, (0, 1), range(4))["QS"] == 1.0


def test_bd_values():
    assert scores(CONTINGENCY_FIXTURE, (0, 1), range(5))["BD"] == pytest.approx(0.4, abs=1e-12)
    identical = [(1, 0, 1), (1, 0, 1)]
    assert scores(identical, (0, 1), range(3))["BD"] == 0.0
    flip = [(1, 0, 1), (0, 1, 0)]
    assert scores(flip, (0, 1), range(3))["BD"] == 1.0


def test_gd_values():
    # failure counts over 4 samples: 0, 1, 2, 3 of 3 members
    rows = [
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 1, 1, 0),
    ]
    assert scores(rows, (0, 1, 2), range(4))["GD"] == pytest.approx(1 / 3, abs=1e-12)

    lockstep = [(1, 0, 1, 0), (1, 0, 1, 0), (1, 0, 1, 0)]
    assert scores(lockstep, (0, 1, 2), range(4))["GD"] == 0.0

    solo = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert scores(solo, (0, 1, 2), range(3))["GD"] == 1.0


def test_gd_no_failures_flag():
    score = classical_scores(np.ones((2, 2), dtype=bool), ["GD"])["GD"]
    assert score.value == 0.0
    assert score.note == "no-failures"


def test_kw_value():
    correct_counts = (2, 2, 3, 2, 1, 2, 2, 2)
    rows = np.zeros((3, 8), dtype=bool)
    for j, k in enumerate(correct_counts):
        rows[:k, j] = True
    assert scores(rows, (0, 1, 2), range(8))["KW"] == pytest.approx(14 / 72, abs=1e-12)


def test_kw_unanimous_zero():
    assert scores([(1, 0, 1), (1, 0, 1), (1, 0, 1)], (0, 1, 2), range(3))["KW"] == 0.0


@settings(max_examples=40, deadline=None)
@given(bits=bits_matrices)
def test_kw_is_scaled_bd(bits):
    # KW = BD * (M'-1) / (2 M') for the mean pairwise disagreement
    members = tuple(range(bits.shape[0]))
    got = scores(bits, members, range(bits.shape[1]))
    m = len(members)
    assert got["KW"] == pytest.approx(got["BD"] * (m - 1) / (2 * m), abs=1e-12)


# --- error handling ----------------------------------------------------------

@pytest.mark.parametrize("name,label", METRIC_NAMES.items())
def test_empty_subset_raises(name, label):
    sub = np.ones((2, 0), dtype=bool)
    with pytest.raises(UndefinedDiversityError) as err:
        classical_scores(sub, [name])
    assert err.value.metric == name, label


@pytest.mark.parametrize("name", METRIC_NAMES, ids=METRIC_NAMES.values())
def test_single_member_team_rejected(name):
    sub = np.array([(1, 0)], dtype=bool)
    with pytest.raises(ValueError, match="at least 2"):
        classical_scores(sub, [name])



def test_classical_scores_matches_names_without_case():
    sub = np.array([(1, 0, 1), (0, 0, 1)], dtype=bool)
    lower = classical_scores(sub, [" ck", "gd "])
    assert lower == classical_scores(sub, ["CK", "GD"])
    assert list(lower) == ["CK", "GD"]


@pytest.mark.parametrize("names, bad", [(["SQ"], "SQ"), (["CK", "XX"], "XX"), (["SQ", "XX"], "SQ")])
def test_classical_scores_rejects_other_metric_names(names, bad):
    """SQ is not a classical metric; a name that is no metric at all is
    refused first, by the list rule every scorer shares."""
    sub = np.array([(1, 0, 1), (0, 0, 1)], dtype=bool)
    message = "unknown metric: 'XX'" if "XX" in names else f"not a classical metric: '{bad}'"
    with pytest.raises(ValueError, match=message):
        classical_scores(sub, names)

# --- properties --------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(bits=bits_matrices, seed=st.integers(0, 999))
def test_oracle_equivalence_small(bits, seed):
    rng = np.random.default_rng(seed)
    m = bits.shape[0]
    size = int(rng.integers(2, m + 1))
    members = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
    subset = list(range(bits.shape[1]))
    got = scores(bits, members, subset)
    assert got["CK"] == pytest.approx(ref.ck_diversity(bits, members, subset), abs=1e-12)
    assert got["QS"] == pytest.approx(ref.q_statistic(bits, members, subset), abs=1e-12)
    assert got["BD"] == pytest.approx(ref.binary_disagreement(bits, members, subset), abs=1e-12)
    assert got["GD"] == pytest.approx(ref.generalized_diversity(bits, members, subset), abs=1e-12)
    assert got["KW"] == pytest.approx(ref.kohavi_wolpert(bits, members, subset), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(bits=bits_matrices, seed=st.integers(0, 999))
def test_permutation_and_duplication_invariance(bits, seed):
    members = tuple(range(bits.shape[0]))
    rng = np.random.default_rng(seed)
    shuffled = tuple(rng.permutation(members).tolist())
    subset = np.arange(bits.shape[1])
    subset_shuffled = rng.permutation(subset)
    doubled = np.concatenate([subset, subset])
    base = scores(bits, members, subset)
    for variant in (scores(bits, shuffled, subset), scores(bits, members, subset_shuffled),
                    scores(bits, members, doubled)):
        for metric in METRIC_NAMES:
            assert variant[metric] == pytest.approx(base[metric], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(bits=bits_matrices)
def test_metric_bounds(bits):
    got = scores(bits, range(bits.shape[0]), range(bits.shape[1]))
    assert 0.0 <= got["CK"] <= 2.0
    assert -1.0 <= got["QS"] <= 1.0
    assert 0.0 <= got["BD"] <= 1.0
    assert 0.0 <= got["GD"] <= 1.0
    assert 0.0 <= got["KW"] <= 1.0


def test_identical_team_degeneracy():
    # clones of a model that is right on some samples and wrong on others
    row = (1, 1, 1, 0, 0, 1)
    got = scores([row, row, row], (0, 1, 2), range(6))
    assert got["BD"] == 0.0
    assert got["GD"] == 0.0
    assert got["KW"] == 0.0
    assert got["QS"] == 1.0
    assert got["CK"] == 0.0
