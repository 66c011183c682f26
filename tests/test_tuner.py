"""Two-step selection and the exhaustive grid-search baseline."""

import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmtune import _ngrams, fcm
from fcmtune.alpha_ml import fit_alpha, log_likelihood, log_likelihood_bound, total_log_likelihood
from fcmtune.dependence import profile, select_k
from fcmtune.fcm import (
    FcmError,
    HyperParams,
    _unsmoothed_bits,
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


def _alphabet(r):
    return Alphabet.from_string("ABCDEFGH"[:r])


def generated_periodic_and_constant(lengths):
    """Generated, periodic and constant sequences over r = 2..8."""
    return st.one_of(
        st.builds(lambda r, k, alpha, T, seed: generate(HyperParams(k, alpha), T, seed,
                                                        _alphabet(r)),
                  st.integers(2, 8), st.integers(0, 6),
                  st.sampled_from([0.01, 0.05, 0.2, 0.4, 1.0, 4.0]),
                  lengths, st.integers(0, 2 ** 32)),
        st.builds(lambda r, period, T: SymbolSequence(
                      _alphabet(r), [period[t % len(period)] % r for t in range(T)]),
                  st.integers(2, 8), st.lists(st.integers(0, 7), min_size=1, max_size=12),
                  lengths),
        st.builds(lambda r, s, T: SymbolSequence(_alphabet(r), [s % r] * T),
                  st.integers(2, 8), st.integers(0, 7), lengths),
    )


@given(st.sampled_from([1, 3, 10]).flatmap(lambda h_max: st.tuples(
    st.just(h_max), generated_periodic_and_constant(st.integers(h_max + 1, 3_000)))))
@settings(max_examples=150, deadline=None)
def test_two_step_composes_the_stages(case):
    """The table two-step fits is build_counts(seq, k*), with k* the argmax
    of the pami profile, in every array, and so is its fit."""
    h_max, seq = case
    fitted = []

    def spy_fit(table):
        fitted.append(table)
        return fit_alpha(table)

    with mock.patch("fcmtune.tuner.fit_alpha", spy_fit):
        res = two_step_select(seq, h_max)
    prof = profile(seq, "pami", h_max)
    k_star = select_k(prof)
    want = build_counts(seq, k_star)
    [table] = fitted
    assert (table.k, table.r, table.truncated) == (want.k, want.r, want.truncated)
    for name in ("cells", "totals", "a", "b"):
        got, expected = getattr(table, name), getattr(want, name)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    fit = fit_alpha(want)
    assert res.alpha_fit == fit
    assert res.method == "two_step"
    assert res.params == HyperParams(k_star, fit.alpha_star)
    np.testing.assert_array_equal(res.profile.values, prof.values)
    assert res.evaluations == 1


def _spy_on(monkeypatch, func, spy):
    """Replace func by spy under every name any fcmtune module holds it by."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "fcmtune"]:
        for attr in [attr for attr, value in vars(module).items() if value is func]:
            monkeypatch.setattr(module, attr, spy)


def test_two_step_walks_the_sequence_once(monkeypatch):
    """k*'s count table comes from the pami walk: one walk of the sequence,
    and no build_counts or fcm replay of it."""
    seq = generate(HyperParams(3, 0.4), 5_000, seed=4)
    calls = []

    def spy(name, func):
        def called(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return called

    for name, func in [("walk", _ngrams.walk), ("build_counts", fcm.build_counts),
                       ("_replays", fcm._replays)]:
        _spy_on(monkeypatch, func, spy(name, func))
    two_step_select(seq)
    assert calls == ["walk"]


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


def test_grid_search_rejects_an_empty_sequence():
    with pytest.raises(FcmError, match="T >= 1"):
        grid_search(parse_sequence("", alphabet=AB))


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


_GRID_VALUES = [0, 3, -1, True, False, np.int64(2), np.int64(-1), 0.0, -0.0, 0.5, 1.5, -0.5,
                np.float64(0.5), np.float64(2.0), np.float32(0.5), np.float32(-0.5), math.nan,
                math.inf, -math.inf, np.float64(math.nan), "2", "0.5", None]


@pytest.mark.parametrize("value", _GRID_VALUES, ids=repr)
def test_grid_rejects_a_k_or_alpha_exactly_when_hyperparams_does(value, monkeypatch):
    """Plain ints and floats skip the HyperParams that every other value
    goes through; either way a point is refused exactly as HyperParams
    refuses it, before the sequence is walked."""
    seq = parse_sequence("ABBABAAB" * 4, alphabet=AB)

    def no_walk(*args):
        raise AssertionError("walked the sequence before refusing a point")

    for k_grid, alpha_grid, point in (([1, value], [0.5], (value, 0.5)),
                                      ([1], [0.5, value], (1, value))):
        try:
            HyperParams(*point)
        except FcmError:
            with monkeypatch.context() as m, pytest.raises(FcmError):
                m.setattr("fcmtune.tuner._replays", no_walk)
                grid_search(seq, k_grid, alpha_grid)
        else:
            grid_search(seq, k_grid, alpha_grid)


@pytest.mark.parametrize("seq", [generate(HyperParams(3, 0.2), 2000, 5),
                                 parse_sequence("ABCD" * 50, alphabet=Alphabet.from_string("ABCD"))],
                         ids=["generated", "periodic"])
def test_grid_of_numpy_scalars_picks_what_the_grid_of_python_numbers_picks(seq):
    want = grid_search(seq)
    got = grid_search(seq, [np.int64(k) for k in DEFAULT_K_GRID],
                      [np.float64(alpha) for alpha in DEFAULT_ALPHA_GRID])
    assert (got.params.k, got.params.alpha, got.bitrate, got.evaluations) == (
        want.params.k, want.params.alpha, want.bitrate, want.evaluations)


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


@given(st.one_of(sequences, st.just(parse_sequence("ABCABCABCABCABCD"))),
       st.lists(st.integers(0, 6), min_size=1, max_size=5),
       st.lists(st.sampled_from([0.0, 0.01, 0.3, 0.5, 2.0, 1e6]),
                min_size=1, max_size=8).map(lambda a: [0.0, *a, 0.5]))
@settings(max_examples=60, deadline=None)
def test_grid_search_picks_what_a_per_point_bitrate_scan_picks(seq, k_grid, alpha_grid):
    """Unsorted, duplicated grids with alpha = 0: the pick is the first
    strict minimum of bitrate() over the sorted lattice, with its total."""
    best = None
    for k in sorted(k_grid):
        for alpha in sorted(alpha_grid):
            total = bitrate(seq, HyperParams(k, alpha)).total_bits
            if best is None or total < best[0]:
                best = (total, HyperParams(k, alpha))
    res = grid_search(seq, k_grid, alpha_grid)
    assert (res.bitrate.total_bits, res.params) == best
    assert res.evaluations == len(k_grid) * len(alpha_grid)


# ---------------------------------------------------------------------------
# the bound-pruned grid is the whole lattice's first argmin


def _lattice_pick(seq, k_grid, alpha_grid):
    """(k, alpha, total_bits, floored_events) of the first argmin over every
    point of the lattice, each charged by bitrate."""
    lattice = [(k, alpha, bitrate(seq, HyperParams(k, alpha)))
               for k in sorted(k_grid) for alpha in sorted(alpha_grid)]
    k, alpha, res = lattice[int(np.argmin([res.total_bits for _, _, res in lattice]))]
    return k, alpha, res.total_bits, res.floored_events


def _pick(res):
    return (res.params.k, res.params.alpha, res.bitrate.total_bits,
            res.bitrate.floored_events)


pruning_sequences = generated_periodic_and_constant(st.integers(1, 3_000))


@st.composite
def pruning_cases(draw):
    seq = draw(pruning_sequences)
    kind = draw(st.sampled_from(["default", "with 0", "without 0", "only 0", "k >= T"]))
    if kind == "default":
        return seq, DEFAULT_K_GRID, DEFAULT_ALPHA_GRID
    k_grid = draw(st.lists(st.integers(0, 10), min_size=1, max_size=6))
    if kind == "k >= T":
        k_grid += draw(st.lists(st.integers(seq.T, seq.T + 3), min_size=1, max_size=3))
    if kind == "only 0":
        return seq, k_grid, [0.0]
    alpha_grid = draw(st.lists(st.sampled_from(DEFAULT_ALPHA_GRID[1:] + (2.0, 1e3)),
                               min_size=1, max_size=40))
    return seq, k_grid, alpha_grid + ([] if kind == "without 0" else [0.0])


@given(pruning_cases())
@settings(max_examples=150, deadline=None)
def test_pruned_grid_is_the_first_argmin_of_the_whole_lattice(case):
    """Generated, periodic and constant sequences over r = 2..8 with
    T = 1..3,000, on the default grid, grids with and without alpha = 0,
    alpha = 0 alone and k >= T: the pick, its total and its floored events
    are those of the fully charged lattice, exactly."""
    seq, k_grid, alpha_grid = case
    res = grid_search(seq, k_grid, alpha_grid)
    assert _pick(res) == _lattice_pick(seq, k_grid, alpha_grid)
    assert res.evaluations == len(k_grid) * len(alpha_grid)


def test_pruned_grid_skips_the_columns_that_lose(monkeypatch):
    """On a long_dense-shaped input the k = 1, 2 columns are charged at
    their probe alone, and alpha = 0 only for the k = 1..4 whose floor (the
    bootstrap plus FLOOR_BITS per distinct (k+1)-gram) does not lose, so a
    prune that charges everything fails here."""
    seq = generate(HyperParams(3, 0.4), 20_000, seed=1)
    tables = {k: build_counts(seq, k) for k in DEFAULT_K_GRID}
    charged = dict.fromkeys(DEFAULT_K_GRID, 0)
    unsmoothed = []

    def table_of(a, b=None):
        [k] = [k for k, t in tables.items()
               if np.array_equal(t.a, a) and (b is None or np.array_equal(t.b, b))]
        return k

    def spy_kernel(a, b, alphas, r):
        charged[table_of(a, b)] += len(alphas)
        return log_likelihood(a, b, alphas, r)

    def spy_bound(a, b, lo, hi, r):
        # the probe rides with the chunk bounds: a one-point interval is its charge
        charged[table_of(a, b)] += int(np.count_nonzero(lo == hi))
        return log_likelihood_bound(a, b, lo, hi, r)

    def spy_unsmoothed(a, bh):
        unsmoothed.append(table_of(a))
        return _unsmoothed_bits(a, bh)

    monkeypatch.setattr("fcmtune.tuner.log_likelihood", spy_kernel)
    monkeypatch.setattr("fcmtune.tuner.log_likelihood_bound", spy_bound)
    monkeypatch.setattr("fcmtune.fcm._unsmoothed_bits", spy_unsmoothed)
    res = grid_search(seq)
    monkeypatch.undo()
    assert charged[1] == charged[2] == 1
    assert sum(charged.values()) < len(DEFAULT_K_GRID) * (len(DEFAULT_ALPHA_GRID) - 1) // 2
    assert unsmoothed == [1, 2, 3, 4]
    assert _pick(res) == _lattice_pick(seq, DEFAULT_K_GRID, DEFAULT_ALPHA_GRID)


@given(pruning_sequences, st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_grid_pick_is_blind_to_symbol_labels(seq, seed):
    """Relabelling the alphabet by a permutation keeps the grid's pick, total
    and floored events bit for bit: every charge and bound reads counts only."""
    perm = np.random.default_rng(seed).permutation(seq.alphabet.r)
    relabelled = SymbolSequence(seq.alphabet, perm[seq.data])
    assert _pick(grid_search(relabelled)) == _pick(grid_search(seq))


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
