"""FCM counting, generation, and the adaptive-replay bitrate.

The bitrate implementation is vectorized over prior-occurrence counts; the
oracle here replays the sequence with a plain dict of count vectors, symbol
by symbol, and must agree to floating-point accuracy.
"""

import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcmtune.alpha_ml import CountMatrix, occupancy, total_log_likelihood
from fcmtune.fcm import (
    FLOOR_BITS,
    BitrateResult,
    FcmError,
    HyperParams,
    _replays,
    bitrate,
    build_counts,
    generate,
    lidstone_prob,
    prediction_bits,
    replay_occurrences,
)
from fcmtune.sequences import DEFAULT_ALPHABET, DNA_ALPHABET, Alphabet, SymbolSequence, parse_sequence

AB = Alphabet.from_string("AB")

sequences = st.text(alphabet="ABCD", min_size=1, max_size=120).map(
    lambda t: parse_sequence(t, alphabet=DEFAULT_ALPHABET)
)


def _bitrate_slow(seq, k, alpha):
    """Symbol-by-symbol adaptive replay (alternative implementation for testing)."""
    r = seq.alphabet.r
    data = seq.data.tolist()
    total = min(k, seq.T) * math.log2(r)
    floored = 0
    counts = {}
    for t in range(k, seq.T):
        ctx = tuple(data[t - k : t])
        vec = counts.setdefault(ctx, [0] * r)
        n_s, n_tot = vec[data[t]], sum(vec)
        if alpha == 0.0 and n_s == 0:
            total += FLOOR_BITS
            floored += 1
        else:
            total += math.log2(n_tot + r * alpha) - math.log2(n_s + alpha)
        vec[data[t]] += 1
    return total, floored


# ---------------------------------------------------------------------------
# hyperparameters and the Lidstone estimator


def test_hyperparams_validation():
    HyperParams(k=0, alpha=0.0)
    with pytest.raises(FcmError):
        HyperParams(k=-1, alpha=1.0)
    for k in (1.5, 2.0, "2"):
        with pytest.raises(FcmError):
            HyperParams(k=k, alpha=1.0)
    with pytest.raises(FcmError):
        HyperParams(k=1, alpha=-0.5)
    with pytest.raises(FcmError):
        HyperParams(k=1, alpha=float("inf"))
    assert HyperParams(k=2, alpha=0.0).no_smoothing
    assert not HyperParams(k=2, alpha=0.5).no_smoothing


@pytest.mark.parametrize("alpha", ["0.5", None, [0.5], float("nan"), -float("inf"), 1j],
                         ids=repr)
def test_hyperparams_rejects_alphas_that_are_not_finite_reals(alpha):
    with pytest.raises(FcmError, match="alpha must be a finite value"):
        HyperParams(1, alpha)


@pytest.mark.parametrize("alpha", [np.float64(0.5), np.float32(0.5), 2, np.int64(0)], ids=repr)
def test_hyperparams_accepts_numpy_and_integer_alphas(alpha):
    assert HyperParams(1, alpha).alpha == alpha


@pytest.mark.parametrize("k", [2.5, "3", True, None, np.float64(2.0), -1], ids=repr)
@pytest.mark.parametrize("func", [build_counts, replay_occurrences])
def test_count_table_rejects_a_k_that_is_not_an_integer(func, k):
    seq = parse_sequence("ABABBA", alphabet=AB)
    with pytest.raises(FcmError, match="k must be an integer"):
        func(seq, k)


def test_hyperparams_rejects_a_bool_k():
    with pytest.raises(FcmError):
        HyperParams(True, 0.5)


def test_lidstone_laplace_and_jeffreys():
    counts = [3, 1, 0, 0]
    # alpha = 1: (n_s + 1) / (N + r)
    assert lidstone_prob(counts, 0, 1.0, 4) == pytest.approx(4 / 8)
    assert lidstone_prob(counts, 2, 1.0, 4) == pytest.approx(1 / 8)
    # alpha = 1/2: (n_s + 1/2) / (N + r/2)
    assert lidstone_prob(counts, 0, 0.5, 4) == pytest.approx(3.5 / 6)
    assert lidstone_prob(counts, 3, 0.5, 4) == pytest.approx(0.5 / 6)


def test_lidstone_alpha_zero_is_empirical():
    assert lidstone_prob([3, 1], 0, 0.0, 2) == pytest.approx(0.75)
    with pytest.raises(FcmError):
        lidstone_prob([0, 0], 0, 0.0, 2)
    with pytest.raises(FcmError):
        lidstone_prob([1, 1], 0, -1.0, 2)


@pytest.mark.parametrize("counts,s,alpha,r", [
    ([1, 2], 0, math.nan, 2),
    ([1, 2], 0, math.inf, 2),
    ([1, 2], 0, "0.5", 2),
    ([1, 2], 5, 0.5, 2),
    ([1, 2], -1, 0.5, 2),
    ([1, 2], 1.0, 0.5, 2),
    ([1, 2], True, 0.5, 2),
    ([0, 0], 0, 1.0, 0),
    ([1, 2], 0, 0.5, 3),
    ([1, 2], 0, 0.5, 2.0),
], ids=["nan-alpha", "inf-alpha", "str-alpha", "s-past-r", "negative-s", "float-s",
        "bool-s", "r-zero", "r-not-len", "float-r"])
@pytest.mark.filterwarnings("error")
def test_lidstone_rejects_bad_arguments_with_fcm_error(counts, s, alpha, r):
    with pytest.raises(FcmError):
        lidstone_prob(counts, s, alpha, r)


def test_lidstone_sums_to_one():
    counts = [5, 0, 2, 1]
    for alpha in (0.01, 0.5, 1.0, 7.0):
        total = sum(lidstone_prob(counts, s, alpha, 4) for s in range(4))
        assert total == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# counting


def test_build_counts_small_example():
    seq = parse_sequence("ABAB", alphabet=AB)
    cc = build_counts(seq, 1)
    assert cc.total == 3
    # in context order: A is followed by B twice, B by A once
    assert cc.n_contexts == 2
    np.testing.assert_array_equal(cc.cells, [2, 1])
    np.testing.assert_array_equal(cc.totals, [2, 1])


def test_build_counts_k0_single_row():
    seq = parse_sequence("AABC", alphabet=DEFAULT_ALPHABET)
    cc = build_counts(seq, 0)
    # the empty context is the one context; D, never seen, has no cell
    assert cc.n_contexts == 1
    np.testing.assert_array_equal(cc.cells, [2, 1, 1])
    np.testing.assert_array_equal(cc.totals, [4])
    assert cc.total == 4


def test_build_counts_unseen_context_is_zero():
    seq = parse_sequence("AAAA", alphabet=AB)
    cc = build_counts(seq, 2)
    # only context AA is materialized; AB, BA and BB have no cell or total
    assert cc.n_contexts == 1
    np.testing.assert_array_equal(cc.cells, [2])
    np.testing.assert_array_equal(cc.totals, [2])


def test_build_counts_short_sequences():
    seq = parse_sequence("AB", alphabet=AB)
    # T = k: no window fits but the context itself is complete
    cc = build_counts(seq, 2)
    assert cc.n_contexts == 0 and not cc.truncated
    assert cc.cells.size == cc.a.size == cc.b.size == 0
    # T < k: the sequence cannot even fill one context
    cc = build_counts(seq, 3)
    assert cc.n_contexts == 0 and cc.truncated and cc.total == 0


def test_build_counts_total_mass():
    seq = parse_sequence("ACGTACGTAACCGGTT", alphabet=Alphabet.from_string("ACGT"))
    for k in range(0, 6):
        assert build_counts(seq, k).total == seq.T - k


def test_build_counts_codes_are_base_r_contexts():
    # transitions BB -> A, BA -> A, AA -> B, AB -> B in order of appearance;
    # the table follows the base-r (lexicographic) order of the contexts
    # instead: AA = 0, AB = 1, BA = 2, BB = 3
    cc = build_counts(parse_sequence("BBAABB", alphabet=AB), 2)
    assert cc.n_contexts == 4
    np.testing.assert_array_equal(cc.cells, [1, 1, 1, 1])
    np.testing.assert_array_equal(cc.totals, [1, 1, 1, 1])
    # one more BB -> B: BB, seen first, holds the last total and the last two
    # cells, (BB, A) before (BB, B)
    cc = build_counts(parse_sequence("BBBAABB", alphabet=AB), 2)
    np.testing.assert_array_equal(cc.cells, [1, 1, 1, 1, 1])
    np.testing.assert_array_equal(cc.totals, [1, 1, 1, 2])


@given(st.sampled_from([2, 4, 20, 120]).flatmap(
           lambda r: st.tuples(st.just(r), st.lists(st.integers(0, r - 1), min_size=1,
                                                    max_size=80))),
       st.data())
@settings(max_examples=150)
def test_build_counts_matches_a_counter_of_windows(r_data, data):
    """cells and totals are the (context, symbol) and context tallies of the
    order-k windows, in lexicographic order, for every k up to T + 1."""
    r, values = r_data
    T = len(values)
    k = data.draw(st.integers(min_value=0, max_value=T + 1), label="k")
    alphabet = Alphabet(tuple(chr(0x100 + i) for i in range(r)))
    cc = build_counts(SymbolSequence(alphabet, values), k)
    cells = Counter((tuple(values[t - k:t]), values[t]) for t in range(k, T))
    contexts = Counter(tuple(values[t - k:t]) for t in range(k, T))
    assert cc.cells.tolist() == [cells[key] for key in sorted(cells)]
    assert cc.totals.tolist() == [contexts[key] for key in sorted(contexts)]
    assert cc.n_contexts == len(contexts)
    assert cc.total == max(T - k, 0)
    assert cc.truncated == (T < k)
    np.testing.assert_array_equal(cc.a, occupancy(np.array(list(cells.values()), dtype=np.int64)))
    np.testing.assert_array_equal(cc.b, occupancy(np.array(list(contexts.values()), dtype=np.int64)))


@given(st.integers(2, 6).flatmap(lambda r: st.tuples(
           st.just(r), st.lists(st.integers(0, r - 1), min_size=1, max_size=300))),
       st.data())
@settings(max_examples=150)
def test_walk_built_tables_equal_checked_ones(r_values, data):
    """``_replays`` builds its tables with no checks; each equals, field for
    field, the checked constructor's table of the windows' own tallies."""
    r, values = r_values
    T = len(values)
    k = data.draw(st.integers(0, min(8, T - 1)), label="k")
    (got, _, _), = _replays(SymbolSequence(Alphabet(tuple("ABCDEF"[:r])), values), [k])
    cells = Counter((tuple(values[t - k:t]), values[t]) for t in range(k, T))
    contexts = Counter(tuple(values[t - k:t]) for t in range(k, T))
    want = CountMatrix(k, r, np.array([cells[key] for key in sorted(cells)], dtype=np.int64),
                       np.array([contexts[key] for key in sorted(contexts)], dtype=np.int64))
    assert (got.k, got.r, got.truncated) == (want.k, want.r, want.truncated)
    assert type(got.k) is int and type(got.r) is int
    for name in ("cells", "totals", "a", "b"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def test_build_counts_holds_no_dense_rows():
    """At r = 200 a (contexts x r) int64 array would take 8 * r bytes per
    context; the sparse table and the walk under it take far less."""
    r, T = 200, 10_000
    alphabet = Alphabet(tuple(chr(0x100 + i) for i in range(r)))
    seq = SymbolSequence(alphabet, np.random.default_rng(3).integers(0, r, T))
    tracemalloc.start()
    try:
        cc = build_counts(seq, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = cc.n_contexts * r * 8
    assert cc.n_contexts > 8_000
    assert peak < dense / 4


# ---------------------------------------------------------------------------
# replay occurrence counts


def test_replay_occurrences_k0_counts_prefix():
    seq = parse_sequence("AABA", alphabet=AB)
    m, M = replay_occurrences(seq, 0)
    np.testing.assert_array_equal(m, [0, 1, 0, 2])
    np.testing.assert_array_equal(M, [0, 1, 2, 3])


def test_replay_occurrences_k1():
    seq = parse_sequence("ABABB", alphabet=AB)
    m, M = replay_occurrences(seq, 1)
    # transitions: AB, BA, AB, BB
    np.testing.assert_array_equal(m, [0, 0, 1, 0])
    np.testing.assert_array_equal(M, [0, 0, 1, 1])


def test_replay_occurrences_empty_when_no_window():
    seq = parse_sequence("AB", alphabet=AB)
    m, M = replay_occurrences(seq, 5)
    assert m.size == 0 and M.size == 0


@given(sequences, st.integers(min_value=0, max_value=5))
def test_replay_occurrences_invariants(seq, k):
    m, M = replay_occurrences(seq, k)
    assert m.size == max(seq.T - k, 0)
    assert np.all(m >= 0)
    assert np.all(m <= M)
    if k == 0:
        np.testing.assert_array_equal(M, np.arange(seq.T))


@given(sequences, st.integers(min_value=0, max_value=5))
def test_replay_histograms_are_count_table_occupancies(seq, k):
    """Over a whole replay, the histogram of m is the occupancy of the cell
    counts and that of M the occupancy of the context totals, which are the
    pair the alpha fit reads."""
    m, M = replay_occurrences(seq, k)
    counts = build_counts(seq, k)
    np.testing.assert_array_equal(np.bincount(M), occupancy(counts.totals))
    np.testing.assert_array_equal(np.bincount(m), occupancy(counts.cells))
    np.testing.assert_array_equal(counts.a, np.bincount(m))
    np.testing.assert_array_equal(counts.b, np.bincount(M))


@given(st.integers(min_value=2, max_value=5).flatmap(
           lambda r: st.tuples(st.just(r), st.lists(st.integers(0, r - 1),
                                                    min_size=1, max_size=60))),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=7))
def test_bitrate_equals_the_traced_round_for_every_k(r_data, ks):
    """bitrate at every point, k >= T included, is the bench's traced
    expression bit for bit: bootstrap plus prediction_bits of that k's replay."""
    r, data = r_data
    seq = SymbolSequence(Alphabet.from_string("ABCDE"[:r]), data)
    for k in ks:
        m, M = replay_occurrences(seq, k)
        for alpha in [0.0, 0.01, 0.5, 3.0]:
            bits, floored = prediction_bits(m, M, alpha, r)
            res = bitrate(seq, HyperParams(k, alpha))
            assert (res.total_bits, res.floored_events) == (
                min(k, seq.T) * float(np.log2(r)) + bits, floored)


@given(st.integers(min_value=2, max_value=6).flatmap(
           lambda r: st.tuples(st.just(r), st.one_of(
               st.lists(st.integers(0, r - 1), min_size=1, max_size=300),
               st.lists(st.integers(0, r - 1), min_size=1, max_size=6).map(lambda p: p * 40)))),
       st.integers(min_value=0, max_value=6))
@example((2, [1] * 10_000), 0)
@example((3, [2] * 10_000), 4)
@example((4, [0, 1, 2, 3, 1] * 2_000), 2)
@example((6, [5, 0, 0, 3, 1, 4, 4] * 1_429), 6)
@settings(max_examples=150, deadline=None)
def test_unsmoothed_bitrate_is_the_dict_replay(r_data, k):
    """The alpha = 0 total, charged from the occupancies with no replay,
    is the dict replay's to rel 1e-12 with the same floored events, also on
    T = 1e4 constant and periodic runs, where the per-j terms cancel most."""
    r, data = r_data
    seq = SymbolSequence(Alphabet.from_string("ABCDEF"[:r]), data)
    res = bitrate(seq, HyperParams(k, 0.0))
    total, floored = _bitrate_slow(seq, k, 0.0)
    assert res.total_bits == pytest.approx(total, rel=1e-12)
    assert res.floored_events == floored


def test_occupancy_counts_values_above_each_j():
    np.testing.assert_array_equal(occupancy(np.array([0, 3, 1, 1])), [3, 1, 1])
    assert occupancy(np.array([0, 0])).size == 0
    assert occupancy(np.empty(0, dtype=np.int64)).size == 0


# ---------------------------------------------------------------------------
# bitrate: hand-worked values


def test_bitrate_two_symbols_small_alpha():
    # first symbol uniform: 1 bit; second: P(B) = 0.125/1.25 = 0.1
    res = bitrate(parse_sequence("AB", alphabet=AB), HyperParams(0, 0.125))
    assert res.total_bits == pytest.approx(1.0 + math.log2(10), rel=1e-12)
    assert res.bits_per_symbol == pytest.approx(res.total_bits / 2)
    assert res.symbols_coded == 2
    assert res.floored_events == 0


def test_bitrate_two_symbols_large_alpha():
    # P(B) = 2/(1+4) = 0.4
    res = bitrate(parse_sequence("AB", alphabet=AB), HyperParams(0, 2.0))
    assert res.total_bits == pytest.approx(1.0 + math.log2(2.5), rel=1e-12)


def test_bitrate_alpha_zero_floor():
    # k=0, alpha=0: first A and first B are unseen -> 32 bits each;
    # the middle repeats of A are certain under the empirical distribution
    res = bitrate(parse_sequence("AAAB", alphabet=AB), HyperParams(0, 0.0))
    assert res.floored_events == 2
    assert res.total_bits == pytest.approx(2 * FLOOR_BITS, rel=1e-12)


def test_bitrate_bootstrap_charges_log2r():
    # T <= k: every symbol is a uniform bootstrap charge
    seq = parse_sequence("ACG", alphabet=Alphabet.from_string("ACGT"))
    res = bitrate(seq, HyperParams(5, 1.0))
    assert res.total_bits == pytest.approx(3 * 2.0)
    assert res.bits_per_symbol == pytest.approx(2.0)


def test_bitrate_requires_nonempty():
    from fcmtune.sequences import SymbolSequence

    empty = SymbolSequence(AB, np.empty(0, dtype=np.int64))
    with pytest.raises(FcmError):
        bitrate(empty, HyperParams(0, 1.0))


def test_prediction_bits_matches_formula():
    m = np.array([0, 1, 3], dtype=np.int64)
    M = np.array([0, 2, 5], dtype=np.int64)
    bits, floored = prediction_bits(m, M, 0.5, 4)
    expect = sum(math.log2(Mi + 2.0) - math.log2(mi + 0.5) for mi, Mi in zip(m, M))
    assert bits == pytest.approx(expect, rel=1e-12)
    assert floored == 0


# ---------------------------------------------------------------------------
# bitrate: oracle replay and properties


@given(
    sequences,
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0.0, 0.01, 0.125, 0.5, 1.0, 3.0]),
)
@settings(max_examples=150)
def test_bitrate_matches_slow_replay(seq, k, alpha):
    res = bitrate(seq, HyperParams(k, alpha))
    total, floored = _bitrate_slow(seq, k, alpha)
    assert res.total_bits == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert res.floored_events == floored
    assert res.symbols_coded == seq.T


@given(
    sequences,
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)
@settings(max_examples=150)
def test_bitrate_equals_bootstrap_minus_likelihood(seq, k, alpha):
    """total_bits = min(k,T)*log2(r) - l(alpha)/ln(2).

    The adaptive replay charge telescopes into the Dirichlet-multinomial
    marginal of the final count table, so the exact identity must hold.
    """
    res = bitrate(seq, HyperParams(k, alpha))
    counts = build_counts(seq, k)
    ll = total_log_likelihood(counts, alpha)
    expect = min(k, seq.T) * math.log2(seq.alphabet.r) - ll / math.log(2)
    assert res.total_bits == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_bitrate_long_constant_run_matches_slow_replay():
    # 9,999 repeats of one context: the likelihood's per-j terms must be
    # combined before summing, or cancellation costs about 5e-12 relative
    seq = parse_sequence("A" * 10_000, alphabet=DEFAULT_ALPHABET)
    res = bitrate(seq, HyperParams(1, 0.01))
    total, _ = _bitrate_slow(seq, 1, 0.01)
    assert res.total_bits == pytest.approx(total, rel=1e-12)


def test_bitrate_huge_alpha_approaches_uniform():
    seq = parse_sequence("AAAAAAAAAA", alphabet=AB)
    res = bitrate(seq, HyperParams(0, 1e12))
    assert res.bits_per_symbol == pytest.approx(1.0, abs=1e-9)


def test_bitrate_constant_sequence_prefers_small_alpha():
    seq = parse_sequence("A" * 50, alphabet=AB)
    bps = [bitrate(seq, HyperParams(0, a)).bits_per_symbol for a in (0.01, 0.1, 1.0, 10.0)]
    assert all(x < y for x, y in zip(bps, bps[1:]))


# ---------------------------------------------------------------------------
# order 40: windows past the int64 range of base-r codes (4**41 > 2**63)

DEEP = HyperParams(40, 0.5)


def test_deep_order_bitrate_matches_slow_replay():
    seq = generate(DEEP, 2000, seed=5)
    total, _ = _bitrate_slow(seq, 40, 0.5)
    assert bitrate(seq, DEEP).total_bits == pytest.approx(total, rel=1e-12)


def test_deep_order_count_table_and_replay():
    seq = generate(DEEP, 2000, seed=5)
    assert build_counts(seq, 40).total == seq.T - 40
    m, M = replay_occurrences(seq, 40)
    assert m.size == seq.T - 40
    assert np.all(m <= M)


# ---------------------------------------------------------------------------
# generation


def test_generate_is_deterministic():
    params = HyperParams(2, 0.5)
    a = generate(params, 500, seed=7)
    b = generate(params, 500, seed=7)
    assert a == b
    assert a != generate(params, 500, seed=8)


def test_generate_length_and_alphabet():
    seq = generate(HyperParams(3, 1.0), 100, seed=1)
    assert seq.T == 100
    assert seq.alphabet == DEFAULT_ALPHABET
    assert seq.data.min() >= 0 and seq.data.max() < 4

    dna = Alphabet.from_string("ACGT")
    seq = generate(HyperParams(1, 0.1), 64, seed=2, alphabet=dna)
    assert seq.alphabet == dna


def test_generate_rejects_bad_arguments():
    with pytest.raises(FcmError):
        generate(HyperParams(1, 0.0), 10, seed=0)
    with pytest.raises(FcmError):
        generate(HyperParams(1, 1.0), 0, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True], ids=repr)
def test_generate_rejects_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(FcmError, match="seed"):
        generate(HyperParams(1, 1.0), 10, seed=seed)


@pytest.mark.parametrize("T", [2.5, True, "10", None, -3], ids=repr)
def test_generate_rejects_lengths_that_are_not_positive_integers(T):
    with pytest.raises(FcmError, match="T must be an integer"):
        generate(HyperParams(1, 1.0), T, seed=0)


def test_generate_accepts_numpy_integer_lengths():
    assert generate(HyperParams(1, 1.0), np.int64(50), seed=5) == generate(
        HyperParams(1, 1.0), 50, seed=5)


def test_generate_accepts_numpy_integer_seeds():
    assert generate(HyperParams(1, 1.0), 50, seed=np.int64(5)) == generate(
        HyperParams(1, 1.0), 50, seed=5)


def test_generate_small_alpha_reuses_symbols():
    # alpha = 0.01 after a long shared history is nearly deterministic:
    # repeated contexts almost always re-emit a seen symbol
    seq = generate(HyperParams(0, 0.01), 2000, seed=3, alphabet=AB)
    frac = np.mean(seq.data == np.argmax(np.bincount(seq.data)))
    assert frac > 0.9


def test_generate_bootstrap_only_when_t_below_k():
    # all symbols come from the uniform bootstrap; still deterministic
    a = generate(HyperParams(10, 1.0), 5, seed=11)
    b = generate(HyperParams(10, 1.0), 5, seed=11)
    assert a == b and a.T == 5


def test_generate_with_k_at_least_t_forms_no_context_code():
    """A k >= T only bootstraps, so r**k is never needed: at k = 1e7 it took
    about 9 MB, and the CLI's --k 10000000000 would ask for about 10 GB."""
    want = generate(HyperParams(10, 0.5), 10, 3)
    tracemalloc.start()
    try:
        seq = generate(HyperParams(10 ** 7, 0.5), 10, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert seq == want


def test_generated_sequence_likes_its_own_parameters():
    # the generating alpha should score a better bitrate than a far-off one
    params = HyperParams(2, 0.5)
    seq = generate(params, 30_000, seed=42)
    near = bitrate(seq, params).bits_per_symbol
    far = bitrate(seq, HyperParams(2, 100.0)).bits_per_symbol
    assert near < far


LATIN124 = Alphabet.from_string("".join(map(chr, range(33, 127))) + "".join(map(chr, range(161, 191))))

_GENERATE_PINS = [
    # (k, alpha, T, alphabet, seed, sha256 of generate(...).data.tobytes());
    # T over 4096 crosses the chunks of uniforms the loop reads
    (0, 1e-6, 5000, AB, 1, "8b8c4d0adc5f0b9b1e7b2e0b5af8fb443292ca486b7fade4ef783400d4878d50"),
    (8, 0.05, 10_000, AB, 2, "1747c8e1e7a5cf16a86f26f0302042c37456f87344ff924238d3ba6e6b0120ec"),
    (40, 5.0, 9000, AB, 3, "4a1c497ef42e50765f8fa27e55ba2d2744444ce353179aeb0762dd1019a4ac07"),
    (1, 0.05, 10_000, DNA_ALPHABET, 4, "3e6c5022e18a928838a2e656424c8bd169616b191dff2364dd0f2706920d0cf2"),
    (8, 1e-6, 9000, DNA_ALPHABET, 5, "2854b251899c5006cadad6eb717f4d4ccadd5e1d43330ebe5d1073f879850795"),
    (40, 0.05, 5000, DNA_ALPHABET, 6, "a742dcef1d063e5d94b676a22a136ee3acdd434d8bd800fa000058705b15adff"),
    (0, 5.0, 4097, DNA_ALPHABET, 7, "80e730db6542956822f4100d2d77feeb48a0ef0752c9af4815ec1f3bb210da9f"),
    (1, 5.0, 9000, LATIN124, 8, "40ea0f9c158d718c3d90c84a5a6a37ea97a99cc05593a7a3cf2231d25af691be"),
    (0, 0.05, 5000, LATIN124, 9, "47dc9597414ba66e68fda6f651b54b2db26d54f38d38807810240edfa36d5b33"),
    (8, 1e-6, 3000, LATIN124, 10, "4a8e58676de10e388a01405b33ef8f3c6073e099a1012ba564a1972229e19a0b"),
    (40, 5.0, 2000, LATIN124, 11, "36c4f8e89f72bfd854328c6a0d9461f32e4b7bc483cba2115ca101f2d5670279"),
    # T <= k: the bootstrap alone
    (40, 0.05, 25, DNA_ALPHABET, 12, "dbfb8551bb059d0d1c972e07ff41db0764aca9ba128c143137a56768c14cf0f2"),
    (8, 5.0, 8, AB, 13, "b79d703347a9185f88a75dfba7eb5f59b92421349c5081bb05ad9e6c866b75c8"),
]


@pytest.mark.parametrize("k,alpha,T,ab,seed,digest", _GENERATE_PINS,
                         ids=[f"k{p[0]}-a{p[1]}-T{p[2]}-r{p[3].r}" for p in _GENERATE_PINS])
def test_generate_output_is_pinned(k, alpha, T, ab, seed, digest):
    """generate's output is a documented function of (params, T, seed)."""
    seq = generate(HyperParams(k, alpha), T, seed, ab)
    assert hashlib.sha256(seq.data.tobytes()).hexdigest() == digest


def test_bitrate_result_is_frozen():
    res = BitrateResult(1.0, 2.0, 2)
    with pytest.raises(AttributeError):
        res.total_bits = 0.0
