"""Metamorphic relations: properties that need no oracle.

Every estimator reads counts of n-grams, never the symbols' labels, so a
permutation of the alphabet leaves each result bit for bit as it was; and
every adaptive charge is -log2 of a probability <= 1, so the replay's total
never falls when the sequence grows by a symbol.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcmtune.alpha_ml import fit_alpha
from fcmtune.dependence import profile
from fcmtune.fcm import HyperParams, bitrate, build_counts, generate
from fcmtune.sequences import Alphabet, SymbolSequence


def _alphabet(r):
    return Alphabet.from_string("ABCDEFGH"[:r])


sequences = st.one_of(
    st.builds(lambda r, k, alpha, T, seed: generate(HyperParams(k, alpha), T, seed, _alphabet(r)),
              st.integers(2, 8), st.integers(0, 6), st.sampled_from([0.01, 0.05, 0.4, 4.0]),
              st.integers(2, 600), st.integers(0, 2 ** 32)),
    st.builds(lambda r, period, T: SymbolSequence(
                  _alphabet(r), [period[t % len(period)] % r for t in range(T)]),
              st.integers(2, 8), st.lists(st.integers(0, 7), min_size=1, max_size=12),
              st.integers(2, 600)),
    st.builds(lambda r, s, T: SymbolSequence(_alphabet(r), [s % r] * T),
              st.integers(2, 8), st.integers(0, 7), st.integers(2, 600)),
)

ALPHAS = (0.0, 0.01, 0.5)


# kappa at lag 6 is 0 up to rounding here; summed in label order it was
# -3.1e-17, and -4.2e-17 after the permutation of seed 0
_PERIOD = [0, 1, 3, 4, 0, 0, 0, 2, 4, 0, 0, 4]


@given(sequences, st.integers(0, 2 ** 32))
@example(SymbolSequence(_alphabet(5), _PERIOD * 27), 0)
@settings(max_examples=80, deadline=None)
def test_relabelling_the_alphabet_changes_no_estimate(seq, seed):
    """bitrate at k = 0..6, the alpha fit and the pami, Cohen's kappa and
    Cramer's nu profiles are bit-identical under a permutation of the
    alphabet."""
    perm = np.random.default_rng(seed).permutation(seq.alphabet.r)
    relabelled = SymbolSequence(seq.alphabet, perm[seq.data])
    for k in range(7):
        for alpha in ALPHAS:
            params = HyperParams(k, alpha)
            assert bitrate(relabelled, params) == bitrate(seq, params)
        if k < seq.T:
            assert fit_alpha(build_counts(relabelled, k)) == fit_alpha(build_counts(seq, k))
    h_max = min(10, seq.T - 1)
    np.testing.assert_array_equal(profile(relabelled, "pami", h_max).values,
                                  profile(seq, "pami", h_max).values)
    for measure in ("cohens_kappa", "cramers_v"):
        np.testing.assert_array_equal(profile(relabelled, measure, h_max).values,
                                      profile(seq, measure, h_max).values)


@given(sequences, st.integers(0, 6), st.sampled_from(ALPHAS))
@settings(max_examples=60, deadline=None)
def test_bitrate_total_never_falls_as_the_sequence_grows(seq, k, alpha):
    """total_bits of each prefix is at most that of the next one, up to one
    ulp of rounding."""
    data = seq.data[:200]
    totals = np.array([bitrate(SymbolSequence(seq.alphabet, data[:t]),
                               HyperParams(k, alpha)).total_bits
                       for t in range(1, data.size + 1)])
    assert np.all(totals[:-1] <= np.nextafter(totals[1:], np.inf))

