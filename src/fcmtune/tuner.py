"""Two-step sequential hyperparameter selection and the exhaustive
grid-search baseline it is compared against.

The two-step path picks k* as the argmax lag of the pami profile, then fits
alpha* by maximum marginal likelihood conditional on k*; its bitrate is that
fit's likelihood, min(k*, T)*log2(r) - l(alpha*)/ln 2. Grid search evaluates
the bitrate at every (k, alpha) lattice point and keeps the argmin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alpha_ml import AlphaFit, fit_alpha
from .dependence import DEFAULT_H_MAX, DependenceProfile, profile, select_k
from .fcm import (
    BitrateResult,
    FcmError,
    HyperParams,
    _result,
    _total_bits,
    bitrate,
    build_counts,
    replay_totals,
)
from .sequences import SymbolSequence

DEFAULT_K_GRID = tuple(range(1, 11))
# 101 values 0.00, 0.01, ..., 1.00; with k in 1..10 the default lattice has
# 1,010 points
DEFAULT_ALPHA_GRID = tuple(round(i / 100, 2) for i in range(101))


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
    """Select k* by maximum pami, then alpha* by maximum likelihood.

    The one bitrate evaluation, at the selected pair, is the fit's own
    l(alpha*), so it equals bitrate(seq, pair) with no replay. The pami
    profile and the alpha fit are retained in the result.
    """
    prof = profile(seq, "pami", h_max)
    k_star = select_k(prof)
    fit = fit_alpha(build_counts(seq, k_star))
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
    """Evaluate the bitrate at every (k, alpha) pair and keep the argmin.

    Ties break toward smaller k, then smaller alpha: the pick is the first
    argmin of the lattice in sorted (k, alpha) order. One fcm.replay_totals
    call charges the lattice, each k's alpha > 0 column with one array call
    of the likelihood kernel, so every value equals bitrate(seq, pair).
    Raises FcmError unless every k is an int >= 0 and every alpha finite >= 0.
    """
    k_grid = list(k_grid)
    alpha_grid = list(alpha_grid)
    if not k_grid or not alpha_grid:
        raise FcmError("grids must be non-empty")
    for k in k_grid:
        HyperParams(k, 0.0)
    for alpha in alpha_grid:
        HyperParams(0, alpha)
    ks, alphas = sorted(k_grid), sorted(alpha_grid)
    lattice = [point for column in replay_totals(seq, ks, alphas) for point in column]
    best = int(np.argmin([total for total, _ in lattice]))  # the first minimum
    total, floored = lattice[best]
    return SelectionResult(
        method="grid_search",
        params=HyperParams(ks[best // len(alphas)], alphas[best % len(alphas)]),
        bitrate=_result(seq, total, floored),
        evaluations=len(k_grid) * len(alpha_grid),
    )


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
