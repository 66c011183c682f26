"""Dirichlet-multinomial likelihood and the alpha maximum-likelihood fit.

The production likelihood uses occupancy coefficients; every oracle here
goes through scipy's log-gamma/digamma forms instead, so agreement checks
two genuinely different evaluation routes.
"""

import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize_scalar
from scipy.special import digamma, gammaln

from fcmtune.alpha_ml import (
    ALPHA_HI,
    ALPHA_LO,
    MAX_ITER,
    _BLOCK,
    AlphaMlError,
    CountMatrix,
    dm_log_marginal,
    fit_alpha,
    log_likelihood,
    log_likelihood_bound,
    log_likelihood_gradient,
    occupancy,
    total_log_likelihood,
)
from fcmtune.fcm import HyperParams, build_counts, generate
from fcmtune.sequences import Alphabet, SymbolSequence
from fcmtune.tuner import _CHUNKS, DEFAULT_ALPHA_GRID

count_matrices = arrays(
    np.int64,
    st.tuples(st.integers(1, 8), st.integers(2, 5)),
    elements=st.integers(0, 12),
).filter(lambda a: a.sum(axis=1).max() >= 2)

alphas = st.floats(min_value=1e-4, max_value=1e4, allow_nan=False)


def _dm_gammaln(row, alpha, r):
    """Log-gamma form of the DM marginal (alternative implementation for testing)."""
    row = np.asarray(row, dtype=float)
    n = row.sum()
    return float(
        gammaln(r * alpha)
        - gammaln(n + r * alpha)
        + sum(gammaln(c + alpha) - gammaln(alpha) for c in row)
    )


def _grad_digamma(rows, alpha, r):
    """Digamma form of dl/dalpha (alternative implementation for testing)."""
    total = 0.0
    for row in np.asarray(rows, dtype=float):
        n = row.sum()
        if n < 1:
            continue
        total += r * digamma(r * alpha) - r * digamma(n + r * alpha)
        total += sum(digamma(c + alpha) - digamma(alpha) for c in row)
    return total


# ---------------------------------------------------------------------------
# CountMatrix construction


def test_count_matrix_from_rows_drops_empty():
    cm = CountMatrix.from_rows([[0, 0, 0], [2, 1, 0], [0, 0, 0], [0, 0, 1]])
    assert cm.n_contexts == 2
    assert cm.r == 3
    np.testing.assert_array_equal(cm.totals, [3, 1])


def test_count_matrix_validation():
    with pytest.raises(AlphaMlError):
        CountMatrix.from_rows([1, 2, 3])
    with pytest.raises(AlphaMlError):
        CountMatrix.from_rows([[1, -1]])


@pytest.mark.parametrize("rows", [[[0.5, 1.2]], [[np.nan, 1]], [[1e20, 1]], [[np.inf, 0]],
                                  [[-np.inf, 0]], [[10 ** 20, 1]], [["1", "2"]],
                                  np.array([[2 ** 63, 1]], dtype=np.uint64)], ids=repr)
def test_count_matrix_rejects_counts_that_are_not_int64_integers(rows):
    with pytest.raises(AlphaMlError, match="integers"):
        CountMatrix.from_rows(rows)


def test_count_matrix_accepts_integer_valued_floats():
    got, want = CountMatrix.from_rows([[2.0, 1.0], [0.0, 3.0]]), CountMatrix.from_rows([[2, 1], [0, 3]])
    for name in ("totals", "a", "b"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, "1", None, 1j], ids=repr)
def test_likelihood_rejects_alphas_that_are_not_finite_reals(alpha):
    cm = CountMatrix.from_rows([[2, 1]])
    for func in (total_log_likelihood, log_likelihood_gradient):
        with pytest.raises(AlphaMlError, match="alpha"):
            func(cm, alpha)
    with pytest.raises(AlphaMlError, match="alpha"):
        dm_log_marginal([2, 1], alpha, 2)


@pytest.mark.parametrize("r", [0, -1, 1.5, "2", True], ids=repr)
def test_dm_rejects_an_alphabet_size_below_one(r):
    with pytest.raises(AlphaMlError, match="r must be"):
        dm_log_marginal([1, 0], 0.5, r)
    with pytest.raises(AlphaMlError, match="r must be"):
        CountMatrix.from_rows([[1, 0]], r=r)


def test_count_matrix_rejects_r_below_the_row_width():
    with pytest.raises(AlphaMlError, match="r must be"):
        dm_log_marginal([1, 2, 3], 0.5, 2)
    with pytest.raises(AlphaMlError, match="r must be"):
        CountMatrix.from_rows([[1, 0, 2]], r=2)
    assert CountMatrix.from_rows([[1, 0, 2]], r=5).r == 5


_I = partial(np.array, dtype=np.int64)


@pytest.mark.parametrize("k,r,cells,totals,match", [
    (-1, 2, _I([2]), _I([2]), "k must be"),
    (True, 2, _I([2]), _I([2]), "k must be"),
    (1.5, 2, _I([2]), _I([2]), "k must be"),
    ("x", 2, _I([2]), _I([2]), "k must be"),
    (1, 0, _I([2]), _I([2]), "r must be"),
    (1, True, _I([2]), _I([2]), "r must be"),
    (1, 2.0, _I([2]), _I([2]), "r must be"),
    (1, 2, _I([-1, 2]), _I([1]), "cells must be"),
    (1, 2, np.array([1.0, 1.0]), _I([2]), "cells must be"),
    (1, 2, [1, 1], _I([2]), "cells must be"),
    (1, 2, _I([[1, 1]]), _I([2]), "cells must be"),
    (1, 2, np.array([1, 1], dtype=np.uint64), _I([2]), "cells must be"),
    (1, 2, _I([1, 1]), np.array([2], dtype=bool), "totals must be"),
    (1, 2, _I([3, 0]), _I([2]), "same mass"),
    (1, 2, _I([3]), _I([1, 2]), "same mass"),
], ids=repr)
def test_count_matrix_constructor_rejects_invalid_tables(k, r, cells, totals, match):
    with pytest.raises(AlphaMlError, match=match):
        CountMatrix(k, r, cells, totals)


def test_count_matrix_from_rows_rejects_an_invalid_k():
    for k in ("x", -1, 2.5, False):
        with pytest.raises(AlphaMlError, match="k must be"):
            CountMatrix.from_rows([[1, 2]], k=k)
    assert CountMatrix.from_rows([[1, 2]], k=np.int64(3)).k == 3


def test_count_matrix_from_counts():
    # build_counts already returns the table, which from_counts hands back
    seq = generate(HyperParams(2, 0.5), 400, seed=5)
    cc = build_counts(seq, 2)
    cm = CountMatrix.from_counts(cc)
    assert cm is cc
    assert cm.k == 2 and cm.r == 4
    assert int(cm.totals.sum()) == cc.total == 398


@given(st.sampled_from([2, 4, 20]).flatmap(
           lambda r: st.tuples(st.just(r), st.lists(st.integers(0, r - 1),
                                                    min_size=7, max_size=120))),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=100, deadline=None)
def test_build_counts_and_from_rows_give_one_table(r_data, k):
    """The walk's sparse table and the dense rows of a Counter of windows
    are one table to the likelihood: same occupancies, totals and fit."""
    r, values = r_data
    seq = SymbolSequence(Alphabet(tuple(chr(0x100 + i) for i in range(r))), values)
    windows = Counter(tuple(values[t - k:t + 1]) for t in range(k, len(values)))
    contexts = sorted({w[:-1] for w in windows})
    dense = CountMatrix.from_rows([[windows[c + (s,)] for s in range(r)] for c in contexts],
                                  k=k, r=r)
    sparse = build_counts(seq, k)
    np.testing.assert_array_equal(sparse.a, dense.a)
    np.testing.assert_array_equal(sparse.b, dense.b)
    np.testing.assert_array_equal(np.sort(sparse.totals), np.sort(dense.totals))
    assert fit_alpha(sparse) == fit_alpha(dense)
    assert fit_alpha(sparse) == fit_alpha(CountMatrix.from_counts(build_counts(seq, k)))


# ---------------------------------------------------------------------------
# closed forms of the DM marginal


@pytest.mark.parametrize("alpha", [1e-5, 0.01, 0.5, 1.0, 3.0, 1e3])
def test_dm_singleton_row_is_uniform(alpha):
    # a single observation is log(1/r) regardless of alpha
    assert dm_log_marginal([1, 0, 0, 0], alpha, 4) == pytest.approx(-math.log(4), rel=1e-12)
    assert dm_log_marginal([0, 0, 1, 0], alpha, 4) == pytest.approx(-math.log(4), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 3.0])
def test_dm_pair_same_symbol(alpha):
    # (2,0,0,0): alpha(alpha+1) / (4alpha(4alpha+1))
    expect = math.log((alpha + 1) / (4 * (4 * alpha + 1)))
    assert dm_log_marginal([2, 0, 0, 0], alpha, 4) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 3.0])
def test_dm_pair_distinct_symbols(alpha):
    # (1,1,0,0): alpha^2 / (4alpha(4alpha+1))
    expect = math.log(alpha / (4 * (4 * alpha + 1)))
    assert dm_log_marginal([1, 1, 0, 0], alpha, 4) == pytest.approx(expect, rel=1e-12)


def test_dm_empty_row_is_zero():
    assert dm_log_marginal([0, 0, 0], 0.7, 3) == 0.0


def test_dm_rejects_bad_arguments():
    with pytest.raises(AlphaMlError):
        dm_log_marginal([1, 0], 0.0, 2)
    with pytest.raises(AlphaMlError):
        dm_log_marginal([1, -1], 1.0, 2)


@given(count_matrices, alphas)
@settings(max_examples=200)
def test_dm_matches_gammaln_oracle(rows, alpha):
    r = rows.shape[1]
    for row in rows:
        got = dm_log_marginal(row, alpha, r)
        assert got == pytest.approx(_dm_gammaln(row, alpha, r), rel=1e-9, abs=1e-9)


@given(count_matrices, alphas)
def test_dm_within_row_permutation_invariance(rows, alpha):
    r = rows.shape[1]
    for row in rows:
        shuffled = np.sort(row)[::-1]
        assert dm_log_marginal(row, alpha, r) == pytest.approx(
            dm_log_marginal(shuffled, alpha, r), rel=1e-12, abs=1e-12
        )


# ---------------------------------------------------------------------------
# total likelihood and gradient


@given(count_matrices, alphas)
@settings(max_examples=150)
def test_total_is_sum_of_rows(rows, alpha):
    cm = CountMatrix.from_rows(rows)
    expect = sum(dm_log_marginal(row, alpha, cm.r) for row in rows)
    assert total_log_likelihood(cm, alpha) == pytest.approx(expect, rel=1e-9, abs=1e-9)


@given(count_matrices, alphas)
def test_total_row_order_invariance(rows, alpha):
    cm = CountMatrix.from_rows(rows)
    perm = CountMatrix.from_rows(rows[::-1])
    assert total_log_likelihood(cm, alpha) == pytest.approx(
        total_log_likelihood(perm, alpha), rel=1e-12
    )


@given(count_matrices, alphas)
@settings(max_examples=150)
def test_gradient_matches_digamma_oracle(rows, alpha):
    cm = CountMatrix.from_rows(rows)
    got = log_likelihood_gradient(cm, alpha)
    want = _grad_digamma(rows, alpha, cm.r)
    assert got == pytest.approx(want, rel=1e-7, abs=1e-9)


@given(count_matrices, st.floats(min_value=0.05, max_value=100.0))
@settings(max_examples=100)
def test_gradient_matches_finite_differences(rows, alpha):
    cm = CountMatrix.from_rows(rows)
    h = alpha * 1e-6
    fd = (total_log_likelihood(cm, alpha + h) - total_log_likelihood(cm, alpha - h)) / (2 * h)
    assert log_likelihood_gradient(cm, alpha) == pytest.approx(fd, rel=1e-4, abs=1e-8)


@given(st.integers(2, 255),
       st.lists(st.integers(1, 5_000), min_size=1, max_size=20),
       st.lists(st.integers(1, 5_000), min_size=1, max_size=40),
       st.lists(st.floats(min_value=ALPHA_LO, max_value=ALPHA_HI), max_size=40))
@example(4, [5_000], [5_000, 1], [10.0 ** e for e in range(-6, 13)] * 2)
@settings(max_examples=150, deadline=None)
def test_likelihood_array_form_is_the_float_form_bit_for_bit(r, totals, cells, alpha_list):
    """Every entry of the array form == the float alpha's l, across several
    row blocks when b is long."""
    cells = np.minimum(cells, max(totals))
    a, b = occupancy(np.array(cells)), occupancy(np.array(totals))
    values = log_likelihood(a, b, np.array(alpha_list), r)
    assert values.shape == (len(alpha_list),)
    assert [float(v) for v in values] == [log_likelihood(a, b, x, r) for x in alpha_list]


def test_likelihood_array_form_spans_blocks_and_takes_empty_arrays():
    totals = np.array([3 * _BLOCK // 40, 7])
    a, b = occupancy(np.array([totals[0] // 2, 9])), occupancy(totals)
    alpha_list = np.geomspace(ALPHA_LO, ALPHA_HI, 400)
    assert 400 > 3 * (_BLOCK // b.size)
    assert list(log_likelihood(a, b, alpha_list, 3)) \
        == [log_likelihood(a, b, float(x), 3) for x in alpha_list]
    empty = log_likelihood(a, b, np.empty(0), 3)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@given(count_matrices,
       st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=2).map(sorted))
@settings(max_examples=150, deadline=None)
def test_likelihood_bound_holds_over_its_interval(rows, edges):
    """The chunk bound of the grid's prune is at least the gammaln form of l
    at every alpha of each chunk of the default lattice, and of [lo, hi]."""
    r = rows.shape[1]
    cm = CountMatrix.from_rows(rows, r=r)
    chunks = [np.array(edges)] + np.array_split(np.array(DEFAULT_ALPHA_GRID[1:]), _CHUNKS)
    bounds = log_likelihood_bound(cm.a, cm.b, np.array([c[0] for c in chunks]),
                                  np.array([c[-1] for c in chunks]), r)
    for bound, chunk in zip(bounds, chunks):
        for alpha in np.linspace(chunk[0], chunk[-1], 7).tolist() + chunk.tolist():
            exact = sum(_dm_gammaln(row, alpha, r) for row in rows)
            assert bound >= exact - 1e-9 * max(1.0, abs(exact))


def test_likelihood_rejects_nonpositive_alpha():
    cm = CountMatrix.from_rows([[2, 1]])
    for func in (total_log_likelihood, log_likelihood_gradient):
        with pytest.raises(AlphaMlError):
            func(cm, 0.0)
        with pytest.raises(AlphaMlError):
            func(cm, -1.0)


# ---------------------------------------------------------------------------
# the maximum-likelihood fit


def test_fit_alpha_on_generated_data_recovers_scale():
    seq = generate(HyperParams(2, 0.5), 100_000, seed=123)
    fit = fit_alpha(build_counts(seq, 2))
    assert fit.converged and not fit.hit_bound and not fit.degenerate
    assert 0.3 < fit.alpha_star < 0.8


@given(count_matrices)
@settings(max_examples=60, deadline=None)
def test_fit_beats_dense_grid(rows):
    cm = CountMatrix.from_rows(rows)
    fit = fit_alpha(cm)
    grid = np.geomspace(ALPHA_LO, ALPHA_HI, 1000)
    best = max(total_log_likelihood(cm, a) for a in grid)
    assert fit.log_likelihood >= best - 1e-7 * abs(best)


@pytest.mark.parametrize("rows", [[[4, 0], [6, 6]], [[4, 0], [7, 7]]], ids=repr)
def test_fit_finds_an_interior_peak_above_the_upper_bound(rows):
    # [[4, 0], [6, 6]]: the direct gradient rounds to 0 at alpha = 1e12;
    # [[4, 0], [7, 7]]: l rises towards 1e12, below its interior peak
    cm = CountMatrix.from_rows(rows)
    fit = fit_alpha(cm)
    assert not fit.hit_bound and 1.0 < fit.alpha_star < 2.0
    assert fit.log_likelihood > total_log_likelihood(cm, ALPHA_HI) + 0.01


def test_fit_matches_scipy_optimizer():
    rng = np.random.default_rng(77)
    for _ in range(20):
        rows = rng.integers(0, 15, size=(rng.integers(2, 30), 4))
        if rows.sum(axis=1).max() < 2:
            continue
        cm = CountMatrix.from_rows(rows)
        fit = fit_alpha(cm)
        res = minimize_scalar(
            lambda t: -total_log_likelihood(cm, math.exp(t)),
            bounds=(math.log(ALPHA_LO), math.log(ALPHA_HI)),
            method="bounded",
            options={"xatol": 1e-10},
        )
        if fit.hit_bound:
            # scipy's bounded search cannot sit exactly on the bound
            assert fit.log_likelihood >= -res.fun - 1e-9
        else:
            assert fit.alpha_star == pytest.approx(math.exp(res.x), rel=1e-5)


def test_fit_hits_lower_bound_on_deterministic_counts():
    # every context concentrates on one symbol: l increases as alpha -> 0
    cm = CountMatrix.from_rows([[30, 0, 0, 0], [0, 25, 0, 0], [0, 0, 40, 0]])
    fit = fit_alpha(cm)
    assert fit.hit_bound and fit.alpha_star == pytest.approx(ALPHA_LO)
    assert isinstance(fit.hit_bound, bool)


def test_fit_hits_upper_bound_on_uniform_counts():
    # perfectly balanced counts: l increases toward the uniform limit
    cm = CountMatrix.from_rows([[20, 20, 20, 20], [7, 7, 7, 7]])
    fit = fit_alpha(cm)
    assert fit.hit_bound and fit.alpha_star == pytest.approx(ALPHA_HI)


def test_fit_degenerate_all_singletons():
    cm = CountMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    fit = fit_alpha(cm)
    assert fit.degenerate and fit.alpha_star == 1.0
    assert fit.converged and not fit.hit_bound and fit.iterations == 0


def test_fit_rejects_empty_matrix():
    with pytest.raises(AlphaMlError):
        fit_alpha(CountMatrix.from_rows(np.zeros((3, 4), dtype=np.int64)))


@given(count_matrices)
@settings(max_examples=60, deadline=None)
def test_fit_result_contract(rows):
    fit = fit_alpha(CountMatrix.from_rows(rows))
    assert ALPHA_LO <= fit.alpha_star <= ALPHA_HI
    assert fit.iterations <= MAX_ITER
    assert isinstance(fit.hit_bound, bool)
    assert np.isfinite(fit.log_likelihood)


def test_fit_gradient_near_zero_at_interior_optimum():
    seq = generate(HyperParams(1, 0.3), 20_000, seed=9)
    cm = build_counts(seq, 1)
    fit = fit_alpha(cm)
    assert not fit.hit_bound
    # stationarity in log-alpha coordinates: alpha * dl/dalpha ~ 0
    g = fit.alpha_star * log_likelihood_gradient(cm, fit.alpha_star)
    assert abs(g) < 1e-3
