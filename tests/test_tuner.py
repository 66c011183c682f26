"""Two-step selection and the exhaustive grid-search baseline."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmtune.alpha_ml import fit_alpha, total_log_likelihood
from fcmtune.dependence import profile, select_k
from fcmtune.fcm import (
    FcmError,
    HyperParams,
    bitrate,
    build_counts,
    generate,
    prediction_bits,
    replay_occurrences,
)
from fcmtune.sequences import Alphabet, SymbolSequence, parse_sequence
from fcmtune.tuner import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_K_GRID,
    compare,
    grid_search,
    two_step_select,
)

AB = Alphabet.from_string("AB")

sequences = st.text(alphabet="ABCD", min_size=12, max_size=80).map(
    lambda t: parse_sequence(t)
    if len(set(t)) >= 2
    else parse_sequence(t + "ABCD")
)


def test_default_grids():
    assert DEFAULT_K_GRID == tuple(range(1, 11))
    assert len(DEFAULT_ALPHA_GRID) == 101
    assert DEFAULT_ALPHA_GRID[0] == 0.0
    assert DEFAULT_ALPHA_GRID[1] == 0.01
    assert DEFAULT_ALPHA_GRID[-1] == 1.0
    assert len(DEFAULT_K_GRID) * len(DEFAULT_ALPHA_GRID) == 1010


# ---------------------------------------------------------------------------
# two-step selection


def test_two_step_composes_the_stages():
    seq = generate(HyperParams(2, 0.5), 30_000, seed=21)
    res = two_step_select(seq)
    prof = profile(seq, "pami", 10)
    k_star = select_k(prof)
    fit = fit_alpha(build_counts(seq, k_star))
    assert res.method == "two_step"
    assert res.params.k == k_star
    assert res.params.alpha == fit.alpha_star
    np.testing.assert_array_equal(res.profile.values, prof.values)
    assert res.alpha_fit.alpha_star == fit.alpha_star
    assert res.evaluations == 1


def _alphabet(r):
    return Alphabet.from_string("ABCDE"[:r])


generated_sequences = st.builds(
    lambda r, k, alpha, T, seed: generate(HyperParams(k, alpha), T, seed, _alphabet(r)),
    st.integers(2, 5), st.integers(0, 8), st.sampled_from([0.01, 0.05, 0.3, 1.0, 4.0]),
    st.integers(12, 3_000), st.integers(0, 2 ** 32))
iid_sequences = st.builds(
    lambda r, T, seed: SymbolSequence(
        _alphabet(r), np.random.default_rng(seed).integers(r, size=T)),
    st.integers(2, 5), st.integers(12, 3_000), st.integers(0, 2 ** 32))
drawn_sequences = st.integers(2, 5).flatmap(lambda r: st.lists(
    st.integers(0, r - 1), min_size=12, max_size=3_000).map(
        lambda data: SymbolSequence(_alphabet(r), data)))


@given(st.one_of(generated_sequences, iid_sequences, drawn_sequences))
@settings(max_examples=120, deadline=None)
def test_two_step_bitrate_matches_direct_evaluation(seq):
    """Two-step's bitrate is its fit's l(alpha*), and that equals a direct
    evaluation at the pick bit for bit."""
    res = two_step_select(seq)
    direct = bitrate(seq, res.params)
    assert res.bitrate == direct


def test_two_step_recovers_generating_order():
    seq = generate(HyperParams(2, 0.5), 50_000, seed=11)
    res = two_step_select(seq)
    assert res.params.k == 2
    assert 0.2 < res.params.alpha < 1.2


def test_two_step_h_max_limits_the_search():
    seq = generate(HyperParams(5, 0.3), 20_000, seed=13)
    res = two_step_select(seq, h_max=3)
    assert 1 <= res.params.k <= 3


# ---------------------------------------------------------------------------
# grid search


def _grid_oracle(seq, k_grid, alpha_grid):
    """Independent argmin over explicit bitrate() calls (for testing)."""
    best = None
    for k in sorted(k_grid):
        for alpha in sorted(alpha_grid):
            bps = bitrate(seq, HyperParams(k, alpha)).bits_per_symbol
            if best is None or bps < best[0]:
                best = (bps, k, alpha)
    return best


@given(sequences)
@settings(max_examples=25, deadline=None)
def test_grid_search_matches_exhaustive_oracle(seq):
    k_grid = (1, 2, 3)
    alpha_grid = (0.0, 0.1, 0.5, 1.0)
    res = grid_search(seq, k_grid, alpha_grid)
    bps, k, alpha = _grid_oracle(seq, k_grid, alpha_grid)
    assert res.params.k == k
    assert res.params.alpha == alpha
    assert res.bitrate.bits_per_symbol == pytest.approx(bps, rel=1e-12)
    assert res.evaluations == 12
    assert res.method == "grid_search"


def test_grid_search_value_equals_bitrate_at_argmin():
    seq = generate(HyperParams(2, 0.3), 3_000, seed=8)
    res = grid_search(seq)
    direct = bitrate(seq, res.params)
    assert res.bitrate.total_bits == pytest.approx(direct.total_bits, rel=1e-12)
    assert res.evaluations == 1010


def test_grid_search_is_never_beaten_on_its_lattice():
    seq = generate(HyperParams(1, 0.2), 2_000, seed=15)
    res = grid_search(seq)
    for k in DEFAULT_K_GRID:
        for alpha in (0.0, 0.13, 0.5, 1.0):
            if alpha in DEFAULT_ALPHA_GRID:
                assert res.bitrate.bits_per_symbol <= bitrate(
                    seq, HyperParams(k, alpha)
                ).bits_per_symbol + 1e-12


def test_grid_search_tie_breaks_toward_smaller_point():
    # T = 1 has no prediction positions for any k >= 1: every lattice point
    # costs exactly log2(r) per bootstrap symbol, a perfect tie
    seq = parse_sequence("A", alphabet=AB)
    res = grid_search(seq, (2, 1, 3), (1.0, 0.5, 0.0))
    assert res.params.k == 1
    assert res.params.alpha == 0.0


def test_grid_search_singleton_grid():
    seq = generate(HyperParams(1, 0.5), 500, seed=3)
    res = grid_search(seq, (2,), (0.25,))
    assert res.params == HyperParams(2, 0.25)
    assert res.evaluations == 1
    assert res.bitrate.total_bits == pytest.approx(
        bitrate(seq, HyperParams(2, 0.25)).total_bits, rel=1e-12
    )


def test_grid_search_rejects_empty_grid():
    seq = parse_sequence("ABAB", alphabet=AB)
    with pytest.raises(ValueError):
        grid_search(seq, (), (0.5,))
    with pytest.raises(ValueError):
        grid_search(seq, (1,), ())


@pytest.mark.parametrize(
    "k_grid,alpha_grid",
    [([-1], [0.5]), ([1.5], [0.5]), (["2"], [0.5]), ([1], [-0.5]),
     ([1], [math.inf]), ([1], [math.nan]), ([1, 2], [0.5, -1e-9])],
    ids=["k=-1", "k=1.5", "k=str", "alpha=-0.5", "alpha=inf", "alpha=nan",
         "one-bad-alpha"],
)
def test_grid_search_rejects_invalid_points(k_grid, alpha_grid):
    seq = parse_sequence("ABBABAAB" * 4, alphabet=AB)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FcmError):
            grid_search(seq, k_grid, alpha_grid)


@pytest.mark.parametrize("k,alpha,seed", [(1, 0.05, 1), (3, 0.4, 2), (8, 0.05, 3)])
def test_grid_total_is_bitrate_and_traced_round_exactly(k, alpha, seed):
    """The grid's total at its pick equals bitrate() and the per-k replay
    expression bit for bit, not just to a tolerance."""
    seq = generate(HyperParams(k, alpha), 2_000, seed=seed)
    res = grid_search(seq)
    pick = res.params
    r = seq.alphabet.r
    replayed = min(pick.k, seq.T) * float(np.log2(r)) + prediction_bits(
        *replay_occurrences(seq, pick.k), pick.alpha, r)[0]
    assert res.bitrate.total_bits == bitrate(seq, pick).total_bits
    assert res.bitrate.total_bits == replayed


def test_grid_search_unsorted_grids_give_sorted_tiebreak():
    seq = parse_sequence("A", alphabet=AB)
    res = grid_search(seq, (10, 4, 7), (0.9, 0.2))
    assert res.params == HyperParams(4, 0.2)


# ---------------------------------------------------------------------------
# alpha* is the bitrate argmin at fixed k


def test_ml_alpha_minimizes_bitrate_at_fixed_k():
    """The replay charge telescopes into the DM marginal, so the ML alpha*
    must beat every other alpha at the same k."""
    seq = generate(HyperParams(2, 0.4), 10_000, seed=33)
    k = 2
    fit = fit_alpha(build_counts(seq, k))
    best = bitrate(seq, HyperParams(k, fit.alpha_star)).total_bits
    for alpha in np.geomspace(1e-4, 1e3, 50):
        assert best <= bitrate(seq, HyperParams(k, float(alpha))).total_bits + 1e-9


def test_likelihood_orders_bitrates():
    seq = generate(HyperParams(1, 0.6), 4_000, seed=55)
    cm = build_counts(seq, 1)
    pairs = []
    for alpha in (0.05, 0.3, 0.8, 2.0):
        pairs.append(
            (total_log_likelihood(cm, alpha),
             bitrate(seq, HyperParams(1, alpha)).total_bits)
        )
    # higher likelihood <=> fewer bits, pair by pair
    for (ll_a, bits_a), (ll_b, bits_b) in zip(pairs, pairs[1:]):
        assert (ll_a - ll_b) * (bits_a - bits_b) <= 0


# ---------------------------------------------------------------------------
# compare


def test_compare_against_known_truth():
    true = HyperParams(2, 0.5)
    seq = generate(true, 30_000, seed=70)
    rec = compare(seq, true)
    assert rec.t == seq.T
    assert rec.true_k == 2 and rec.true_alpha == 0.5
    assert rec.k_match == (rec.k_star == 2)
    assert rec.evaluations_two_step == 1
    assert rec.evaluations_grid == 1010
    assert rec.bps_true == pytest.approx(
        bitrate(seq, true).bits_per_symbol, rel=1e-12
    )
    # grid search saw every lattice point including the two-step pick's k;
    # with alpha* off-lattice the grid can only win by a grid-resolution gap
    assert rec.bps_grid <= rec.bps_two_step + 0.01


def test_compare_without_truth():
    seq = generate(HyperParams(1, 0.5), 2_000, seed=71)
    rec = compare(seq)
    assert rec.true_k is None
    assert rec.true_alpha is None
    assert rec.bps_true is None
    assert rec.k_match is None
