"""Dependence measures: pami against a brute-force CMI oracle, nu and kappa
against naive contingency-table reimplementations."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmtune.dependence import (
    DEFAULT_H_MAX,
    MEASURES,
    DependenceError,
    DependenceProfile,
    cohens_kappa,
    cramers_v,
    lagged_joint,
    marginals,
    pami,
    profile,
    select_k,
)
from fcmtune.fcm import HyperParams, generate
from fcmtune.sequences import DEFAULT_ALPHABET, Alphabet, parse_sequence
from fcmtune.tuner import two_step_select

AB = Alphabet.from_string("AB")

sequences = st.text(alphabet="ABC", min_size=4, max_size=60).map(
    lambda t: parse_sequence(t, alphabet=Alphabet.from_string("ABC"))
)


def _cmi_oracle(seq, h):
    """Plug-in conditional mutual information I(Y_t; Y_{t+h} | in-between)
    from explicit window tallies (alternative implementation for testing)."""
    data = [int(x) for x in seq.data]
    n = len(data) - h
    cw = Counter(tuple(data[t : t + h + 1]) for t in range(n))
    cl = Counter(tuple(data[t : t + h]) for t in range(n))
    cr = Counter(tuple(data[t + 1 : t + h + 1]) for t in range(n))
    cm = Counter(tuple(data[t + 1 : t + h]) for t in range(n))
    total = 0.0
    for win, c in cw.items():
        total += (c / n) * math.log(
            c * cm[win[1:-1]] / (cl[win[:-1]] * cr[win[1:]])
        )
    return max(total, 0.0)


def _cramers_v_oracle(seq, h):
    """Textbook chi-square form on the lag-h table (for testing)."""
    r = seq.alphabet.r
    n = seq.T - h
    joint = np.zeros((r, r))
    for i, j in zip(seq.data[h:], seq.data[:-h]):
        joint[i, j] += 1.0 / n
    p = np.bincount(seq.data, minlength=r) / seq.T
    r_eff = int((p > 0).sum())
    if r_eff < 2:
        return 0.0
    chi2 = 0.0
    for i in range(r):
        for j in range(r):
            e = p[i] * p[j]
            if e > 0:
                chi2 += (joint[i, j] - e) ** 2 / e
    return math.sqrt(chi2 / (r_eff - 1))


def _cohens_kappa_oracle(seq, h):
    """Observed-vs-chance agreement form (for testing)."""
    n = seq.T - h
    po = sum(1 for a, b in zip(seq.data[h:], seq.data[:-h]) if a == b) / n
    p = np.bincount(seq.data, minlength=seq.alphabet.r) / seq.T
    pe = float(p @ p)
    if 1.0 - pe <= 0.0:
        return math.nan
    return (po - pe) / (1.0 - pe)


# ---------------------------------------------------------------------------
# marginals and lagged joint


def test_marginals():
    seq = parse_sequence("AABC", alphabet=DEFAULT_ALPHABET)
    np.testing.assert_allclose(marginals(seq), [0.5, 0.25, 0.25, 0.0])


def test_lagged_joint_small_example():
    seq = parse_sequence("ABAB", alphabet=AB)
    lj = lagged_joint(seq, 1)
    # pairs (Y_t, Y_{t-1}): (B,A), (A,B), (B,A)
    np.testing.assert_allclose(lj.joint, [[0, 1 / 3], [2 / 3, 0]])
    assert lj.h == 1


@given(sequences, st.integers(min_value=1, max_value=3))
def test_lagged_joint_sums_to_one(seq, h):
    if h >= seq.T:
        return
    lj = lagged_joint(seq, h)
    assert lj.joint.sum() == pytest.approx(1.0)
    assert lj.joint.min() >= 0.0
    np.testing.assert_allclose(lj.marginals, marginals(seq))


def test_lagged_joint_validates_lag():
    seq = parse_sequence("ABAB", alphabet=AB)
    with pytest.raises(DependenceError):
        lagged_joint(seq, 0)
    with pytest.raises(DependenceError):
        lagged_joint(seq, 4)


# ---------------------------------------------------------------------------
# pami


def test_pami_frozen_value():
    # windows AB, BA, AB: 2*(1/3)log(2*3/(2*2)) + (1/3)log(1*3/(1*1))
    expect = (2 * math.log(1.5) + math.log(3.0)) / 3.0
    assert pami(parse_sequence("ABAB", alphabet=AB), 1) == pytest.approx(expect, rel=1e-12)


def test_pami_constant_sequence_is_zero():
    seq = parse_sequence("AAAAAA", alphabet=AB)
    for h in (1, 2, 3):
        assert pami(seq, h) == 0.0
    # one B before 999 As: at every lag the windows are independent of their
    # far ends given their interiors, exactly, so pami is 0 and not the
    # rounding of its sums, which would move the argmax off lag 1
    near = parse_sequence("B" + "A" * 999, alphabet=AB)
    assert profile(near, "pami", 10).values.tolist() == [0.0] * 10


def test_pami_iid_like_alternation():
    # deterministic alternation: lag 1 carries full information log 2
    seq = parse_sequence("AB" * 50, alphabet=AB)
    assert pami(seq, 1) == pytest.approx(math.log(2), rel=1e-2)


@given(sequences, st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
def test_pami_matches_cmi_oracle(seq, h):
    if h >= seq.T:
        return
    assert pami(seq, h) == pytest.approx(_cmi_oracle(seq, h), rel=1e-12, abs=1e-13)


@given(sequences, st.integers(min_value=1, max_value=4))
def test_pami_nonnegative(seq, h):
    if h >= seq.T:
        return
    assert pami(seq, h) >= 0.0


@given(sequences, st.integers(min_value=1, max_value=4))
def test_pami_reversal_invariance(seq, h):
    # I(left; right | middle) is symmetric under time reversal
    if h >= seq.T:
        return
    rev = type(seq)(seq.alphabet, seq.data[::-1])
    assert pami(rev, h) == pytest.approx(pami(seq, h), rel=1e-12, abs=1e-13)


def test_pami_profile_reaches_lag_40():
    # 41-symbol windows over r = 4 are past the int64 range of base-r codes
    seq = generate(HyperParams(40, 0.5), 2000, seed=5)
    prof = profile(seq, "pami", 40)
    for h in (1, 20, 40):
        assert prof.values[h - 1] == pytest.approx(_cmi_oracle(seq, h), abs=1e-12)


@pytest.mark.parametrize("k,alpha,T", [(3, 0.4, 20_000), (8, 0.05, 10_000)])
def test_pami_profile_matches_cmi_oracle_at_every_lag(k, alpha, T):
    """Every lag of a default-depth profile, on a dense and a sparse source."""
    seq = generate(HyperParams(k, alpha), T, seed=7)
    prof = profile(seq, "pami", 10)
    for h in range(1, 11):
        assert prof.values[h - 1] == pytest.approx(_cmi_oracle(seq, h), abs=1e-12)


def test_pami_validates_lag():
    seq = parse_sequence("ABAB", alphabet=AB)
    with pytest.raises(DependenceError):
        pami(seq, 0)
    with pytest.raises(DependenceError):
        pami(seq, 4)


# ---------------------------------------------------------------------------
# Cramer's nu and Cohen's kappa


@given(sequences, st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
def test_cramers_v_matches_oracle(seq, h):
    if h >= seq.T:
        return
    assert cramers_v(seq, h) == pytest.approx(_cramers_v_oracle(seq, h), rel=1e-12, abs=1e-13)


@given(sequences, st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
def test_cohens_kappa_matches_oracle(seq, h):
    if h >= seq.T:
        return
    got, want = cohens_kappa(seq, h), _cohens_kappa_oracle(seq, h)
    assert math.isnan(got) == math.isnan(want)
    if not math.isnan(want):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_kappa_perfect_disagreement():
    assert cohens_kappa(parse_sequence("ABABAB", alphabet=AB), 1) == pytest.approx(-1.0)


def test_kappa_perfect_agreement():
    seq = parse_sequence("AAABBB", alphabet=AB)
    # lag 3 pairs: (B,A), (B,A), (B,A) -> po = 0; lag 1 -> po = 4/5
    assert cohens_kappa(seq, 1) == pytest.approx((0.8 - 0.5) / 0.5)


def test_degenerate_constant_sequence():
    seq = parse_sequence("AAAA", alphabet=AB)
    assert cramers_v(seq, 1) == 0.0
    assert math.isnan(cohens_kappa(seq, 1))


@given(sequences, st.integers(min_value=1, max_value=4))
def test_kappa_at_most_one(seq, h):
    if h >= seq.T:
        return
    value = cohens_kappa(seq, h)
    assert math.isnan(value) or value <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# profiles and order selection


def test_profile_matches_pointwise_calls():
    seq = parse_sequence("ACGTACGTACGT", alphabet=Alphabet.from_string("ACGT"))
    for measure in MEASURES:
        prof = profile(seq, measure, h_max=5)
        assert prof.measure == measure
        assert prof.h_max == 5
        np.testing.assert_array_equal(prof.lags, [1, 2, 3, 4, 5])
        func = {"pami": pami, "cramers_v": cramers_v, "cohens_kappa": cohens_kappa}[measure]
        for h, value in zip(prof.lags, prof.values):
            assert value == pytest.approx(func(seq, int(h)), nan_ok=True)


def test_profile_validation():
    seq = parse_sequence("ABAB", alphabet=AB)
    with pytest.raises(DependenceError):
        profile(seq, "mutualinfo")
    with pytest.raises(DependenceError):
        profile(seq, "pami", h_max=0)
    with pytest.raises(DependenceError):
        profile(seq, "pami", h_max=4)  # needs T > h_max
    assert DEFAULT_H_MAX == 10


@pytest.mark.parametrize("h", [2.5, "3", True, None, np.float64(2.0)], ids=repr)
def test_lags_must_be_integers(h):
    seq = generate(HyperParams(1, 0.5), 60, seed=1)
    calls = [lambda: profile(seq, "pami", h), lambda: profile(seq, "cramers_v", h),
             lambda: lagged_joint(seq, h), lambda: pami(seq, h),
             lambda: cramers_v(seq, h), lambda: cohens_kappa(seq, h),
             lambda: two_step_select(seq, h)]
    for call in calls:
        with pytest.raises(DependenceError, match="must be an integer"):
            call()


def test_select_k_argmax():
    prof = DependenceProfile(measure="pami", values=np.array([0.1, 0.4, 0.2]))
    assert select_k(prof) == 2


def test_select_k_tie_takes_smallest():
    prof = DependenceProfile(measure="pami", values=np.array([0.3, 0.3, 0.1]))
    assert select_k(prof) == 1


def test_select_k_skips_nan():
    prof = DependenceProfile(measure="cohens_kappa", values=np.array([math.nan, 0.2, 0.3]))
    assert select_k(prof) == 3


def test_select_k_rejects_degenerate_profiles():
    with pytest.raises(DependenceError):
        select_k(DependenceProfile(measure="pami", values=np.empty(0)))
    with pytest.raises(DependenceError):
        select_k(DependenceProfile(measure="cohens_kappa",
                                   values=np.array([math.nan, math.nan])))


def test_profile_rejects_unknown_measure_dataclass():
    with pytest.raises(DependenceError):
        DependenceProfile(measure="acf", values=np.array([0.1]))


def test_profile_values_are_a_1d_float64_array():
    # a list becomes a float64 array, a float64 array is kept as it is, and
    # values that are not a 1-d sequence of reals raise DependenceError
    assert select_k(DependenceProfile("pami", [0.1, 0.3])) == 2
    values = np.array([0.4, 0.2])
    assert DependenceProfile("pami", values).values is values
    for bad in (np.zeros((2, 2)), 0.5, ["a"], [[0.1], [0.2, 0.3]]):
        with pytest.raises(DependenceError):
            DependenceProfile("pami", bad)
