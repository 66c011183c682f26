"""Two-step sequential hyperparameter selection and the exhaustive
grid-search baseline it is compared against.

The two-step path picks k* as the argmax lag of the pami profile, then fits
alpha* by maximum marginal likelihood on the order-k* count table that the
profile's n-gram sort gave; its bitrate is that fit's likelihood,
min(k*, T)*log2(r) - l(alpha*)/ln 2. Grid search keeps the argmin of the
bitrate over the (k, alpha) lattice: every point is either charged, at the
value bitrate() has, or proven worse than a charged point by a lower bound
on its total (branch and bound), so the pick is the whole lattice's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alpha_ml import AlphaFit, fit_alpha, log_likelihood, log_likelihood_bound, occupancy
from .dependence import DEFAULT_H_MAX, DependenceProfile, _pami_lags, select_k
from .fcm import (
    FLOOR_BITS,
    BitrateResult,
    FcmError,
    HyperParams,
    _check_alpha,
    _check_k,
    _replays,
    _result,
    _table,
    _total_bits,
    _unsmoothed,
    bitrate,
)
from .sequences import SymbolSequence

DEFAULT_K_GRID = tuple(range(1, 11))
# 101 values 0.00, 0.01, ..., 1.00; with k in 1..10 the default lattice has
# 1,010 points
DEFAULT_ALPHA_GRID = tuple(round(i / 100, 2) for i in range(101))
# grid_search bounds each alpha > 0 column in this many chunks of alphas
_CHUNKS = 8
# a lower bound rules points out only when it exceeds a charged total by
# more than this share of its own size
_MARGIN = 1e-9


@dataclass(frozen=True)
class SelectionResult:
    """A selected (k, alpha) pair with its bitrate and provenance."""

    method: str
    params: HyperParams
    bitrate: BitrateResult
    evaluations: int
    profile: DependenceProfile | None = None
    alpha_fit: AlphaFit | None = None


@dataclass(frozen=True)
class ComparisonRecord:
    """Two-step vs grid search vs (optionally) the generating pair."""

    t: int
    bps_two_step: float
    bps_grid: float
    evaluations_two_step: int
    evaluations_grid: int
    k_star: int
    alpha_star: float
    k_grid: int
    alpha_grid: float
    true_k: int | None = None
    true_alpha: float | None = None
    bps_true: float | None = None
    k_match: bool | None = None


def two_step_select(seq: SymbolSequence, h_max: int = DEFAULT_H_MAX) -> SelectionResult:
    """Select k* by maximum pami, then alpha* by maximum likelihood on k*'s
    count table, taken from the pami levels: the sequence is sorted once.

    The one bitrate evaluation, at the selected pair, is the fit's own
    l(alpha*), so it equals bitrate(seq, pair) with no replay. The pami
    profile and the alpha fit are retained in the result.
    """
    lags = list(_pami_lags(seq, h_max))
    prof = DependenceProfile("pami", np.array([value for value, _, _ in lags]))
    k_star = select_k(prof)
    _, cells, contexts = lags[k_star - 1]
    fit = fit_alpha(_table(cells, contexts, seq.alphabet.r))
    log2r = float(np.log2(seq.alphabet.r))
    return SelectionResult(
        method="two_step",
        params=HyperParams(k_star, fit.alpha_star),
        bitrate=_result(seq, _total_bits(k_star, seq.T, log2r, fit.log_likelihood)),
        evaluations=1,
        profile=prof,
        alpha_fit=fit,
    )


def grid_search(
    seq: SymbolSequence,
    k_grid=DEFAULT_K_GRID,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> SelectionResult:
    """Keep the argmin of the bitrate over every (k, alpha) pair.

    Ties break toward smaller k, then smaller alpha: the pick is the first
    argmin of the lattice in sorted (k, alpha) order. Every lattice point is
    either charged, with the value bitrate(seq, pair) has bit for bit, or
    proven worse than a charged point by a lower bound on its total, so the
    pick and its total are those of the whole lattice. One n-gram sort
    gives each k's count table; there one kernel call charges one probe
    alpha per k and bounds its chunks of alphas, and the alpha = 0 point,
    from the same occupancies, is charged only where its floor (the
    bootstrap plus FLOOR_BITS per distinct (k+1)-gram) does not lose to the
    best total so far; only such a k sorts its levels' positions. Then the
    column of the best probe is charged in full, and of every other column
    the chunks whose bound does not lose, in one kernel call.
    ``evaluations`` is the lattice size.
    Raises FcmError unless every k is an int >= 0, every alpha finite >= 0
    and T >= 1.
    """
    k_grid = list(k_grid)
    alpha_grid = list(alpha_grid)
    if not k_grid or not alpha_grid:
        raise FcmError("grids must be non-empty")
    if seq.T < 1:
        raise FcmError("grid search needs T >= 1")
    for k in k_grid:
        _check_k(k)
    for alpha in alpha_grid:
        _check_alpha(alpha)
    ks, alphas = sorted(dict.fromkeys(k_grid)), sorted(dict.fromkeys(alpha_grid))
    r, log2r = seq.alphabet.r, float(np.log2(seq.alphabet.r))
    zero = alphas.index(0.0) if 0.0 in alphas else None
    at = np.array([i for i, alpha in enumerate(alphas) if i != zero], dtype=np.intp)
    smoothed = np.array([alphas[i] for i in at], dtype=np.float64)
    mid = smoothed.size // 2
    # the non-empty chunks of smoothed, as np.array_split cuts them: the
    # first rem are one longer
    q, rem = divmod(smoothed.size, _CHUNKS)
    sizes = np.array([size for size in [q + 1] * rem + [q] * (_CHUNKS - rem) if size],
                     dtype=np.intp)
    ends = np.cumsum(sizes)
    # the bound's interval 0 is the probe alone, its value; 1.. are the chunks
    lo = np.concatenate((smoothed[mid:mid + 1], smoothed[ends - sizes]))
    hi = np.concatenate((smoothed[mid:mid + 1], smoothed[ends - 1]))

    totals = np.full((len(ks), len(alphas)), np.inf)  # inf: not charged
    floored = [0] * len(ks)
    for i, k in enumerate(ks):
        if k >= seq.T:
            totals[i] = seq.T * log2r  # no symbol predicted: the bootstrap alone
    best = totals.min()
    # cells, context totals and chunk bounds of every k < T; the occupancy
    # pair is as long as the largest count (1e6 in a constant run of 1e6), so
    # it is rebuilt per column
    columns = {}
    for table, cells, contexts in _replays(seq, ks):
        i = ks.index(table.k)
        if smoothed.size:
            l = log_likelihood_bound(table.a, table.b, lo, hi, r)
            rows = _total_bits(table.k, seq.T, log2r, l)
            totals[i, at[mid]] = rows[0]
            columns[i] = table.cells, table.totals, rows[1:]
            best = min(best, totals[i, at[mid]])
        floor = table.k * log2r + FLOOR_BITS * cells.counts.size
        if zero is not None and not _loses(floor, best):
            totals[i, zero], floored[i] = _unsmoothed(table, cells, contexts, log2r)
            best = min(best, totals[i, zero])

    for n, i in enumerate(sorted(columns, key=lambda i: totals[i, at[mid]])):
        keep = np.arange(smoothed.size)
        if n:  # the best probe's column is charged whole
            keep = keep[np.repeat(~_loses(columns[i][2], best), sizes)]
        if keep.size:
            a, b = map(occupancy, columns[i][:2])
            l = log_likelihood(a, b, smoothed[keep], r)
            totals[i, at[keep]] = _total_bits(ks[i], seq.T, log2r, l)
            best = min(best, totals[i].min())

    pick = int(np.argmin(totals))  # the first minimum
    i, j = divmod(pick, len(alphas))
    return SelectionResult(
        method="grid_search",
        params=HyperParams(ks[i], alphas[j]),
        bitrate=_result(seq, float(totals[i, j]), floored[i] if j == zero else 0),
        evaluations=len(k_grid) * len(alpha_grid),
    )


def _loses(bound, charged):
    """Whether a lower bound (or each of an array of them) rules its points
    out against a charged total: it must exceed it by more than _MARGIN of
    its own size, which covers the rounding of both."""
    return bound - charged > _MARGIN * abs(bound)


def compare(
    seq: SymbolSequence,
    true_params: HyperParams | None = None,
    h_max: int = DEFAULT_H_MAX,
) -> ComparisonRecord:
    """Run two-step selection and the default grid search; also score the
    generating pair when known."""
    two = two_step_select(seq, h_max)
    gs = grid_search(seq)
    bps_true = None
    k_match = None
    if true_params is not None:
        bps_true = bitrate(seq, true_params).bits_per_symbol
        k_match = two.params.k == true_params.k
    return ComparisonRecord(
        t=seq.T,
        bps_two_step=two.bitrate.bits_per_symbol,
        bps_grid=gs.bitrate.bits_per_symbol,
        evaluations_two_step=two.evaluations,
        evaluations_grid=gs.evaluations,
        k_star=two.params.k,
        alpha_star=two.params.alpha,
        k_grid=gs.params.k,
        alpha_grid=gs.params.alpha,
        true_k=None if true_params is None else true_params.k,
        true_alpha=None if true_params is None else true_params.alpha,
        bps_true=bps_true,
        k_match=k_match,
    )
