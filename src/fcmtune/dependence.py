"""Serial-dependence measures for categorical sequences.

pami (partial auto mutual information) is the conditional mutual information
between symbols h apart given the symbols in between, the categorical
analogue of the partial autocorrelation function; its argmax lag is the
context-order selector; its walk holds each lag h's order-h count table.
Cramer's nu and Cohen's kappa are the classical unsigned/signed lag-h
association measures on the lagged contingency table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._ngrams import walk
from .sequences import SymbolSequence

MEASURES = ("pami", "cramers_v", "cohens_kappa")
DEFAULT_H_MAX = 10


class DependenceError(ValueError):
    """Invalid lag or sequence for a dependence measure."""


@dataclass(frozen=True)
class DependenceProfile:
    """Per-lag values of one dependence measure over lags 1..h_max."""

    measure: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise DependenceError(f"unknown measure {self.measure!r}")

    @property
    def h_max(self) -> int:
        return int(self.values.size)

    @property
    def lags(self) -> np.ndarray:
        return np.arange(1, self.h_max + 1)


@dataclass(frozen=True)
class LaggedJoint:
    """Empirical joint distribution of (Y_t, Y_{t-h}) and the marginals."""

    h: int
    joint: np.ndarray = field(repr=False)
    marginals: np.ndarray = field(repr=False)


def _check_lag(seq: SymbolSequence, h, name: str) -> None:
    if not isinstance(h, numbers.Integral) or isinstance(h, bool) or not 1 <= h < seq.T:
        raise DependenceError(f"{name} must be an integer in 1..T-1 = {seq.T - 1}, got {h!r}")


def marginals(seq: SymbolSequence) -> np.ndarray:
    """Relative symbol frequencies p_i = count(i)/T."""
    if seq.T < 1:
        raise DependenceError("marginals need T >= 1")
    return np.bincount(seq.data, minlength=seq.alphabet.r) / seq.T


def lagged_joint(seq: SymbolSequence, h: int) -> LaggedJoint:
    """Joint relative frequencies joint[i][j] = #{t: Y_t=i, Y_{t-h}=j} / (T-h)."""
    _check_lag(seq, h, "lag")
    r = seq.alphabet.r
    pair = seq.data[h:] * r + seq.data[:-h]
    joint = np.bincount(pair, minlength=r * r).reshape(r, r) / (seq.T - h)
    return LaggedJoint(h=h, joint=joint, marginals=marginals(seq))


def cramers_v(seq: SymbolSequence, h: int) -> float:
    """Cramer's nu at lag h.

    nu(h) = sqrt( 1/(r_eff - 1) * sum_ij (p_ij - p_i p_j)^2 / (p_i p_j) )
    over the cells with p_i p_j > 0, where r_eff counts the symbols that
    actually occur. A constant sequence (r_eff < 2) is degenerate and
    returns 0.0.
    """
    lj = lagged_joint(seq, h)
    p = lj.marginals
    r_eff = int(np.count_nonzero(p))
    if r_eff < 2:
        return 0.0
    expected = np.outer(p, p)
    mask = expected > 0
    chi2 = float(((lj.joint[mask] - expected[mask]) ** 2 / expected[mask]).sum())
    return math.sqrt(chi2 / (r_eff - 1))


def cohens_kappa(seq: SymbolSequence, h: int) -> float:
    """Cohen's kappa at lag h.

    kappa(h) = sum_i (p_ii(h) - p_i^2) / (1 - sum_i p_i^2). For a constant
    sequence the denominator vanishes and the value is undefined; NaN is
    returned as the degenerate flag.
    """
    lj = lagged_joint(seq, h)
    p = lj.marginals
    denom = 1.0 - float(p @ p)
    if denom <= 0.0:
        return math.nan
    return float((np.diag(lj.joint) - p * p).sum() / denom)


def pami(seq: SymbolSequence, h: int) -> float:
    """Partial auto mutual information at lag h (natural log).

    Plug-in conditional mutual information I(Y_t; Y_{t+h} | in-between) over
    the N = T - h sliding windows of length h+1: each window w contributes
    (c(w)/N) * log( c(w)*c(mid) / (c(left)*c(right)) ), with c(mid) the count
    of its interior (h-1)-gram (c(mid) := N when h = 1), c(left)/c(right)
    the counts of its leading/trailing h-grams. Relative frequencies only,
    no smoothing; clamped at 0 against fp round-off. This is the value at h
    of ``profile(seq, "pami", h)``.
    """
    return float(profile(seq, "pami", h).values[h - 1])


def profile(seq: SymbolSequence, measure: str = "pami",
            h_max: int = DEFAULT_H_MAX) -> DependenceProfile:
    """Evaluate one measure at every lag 1..h_max."""
    if measure not in MEASURES:
        raise DependenceError(f"unknown measure {measure!r}")
    if measure == "pami":
        values = [value for value, _, _ in _pami_lags(seq, h_max)]
    else:
        _check_lag(seq, h_max, "h_max")
        func = cramers_v if measure == "cramers_v" else cohens_kappa
        values = [func(seq, h) for h in range(1, h_max + 1)]
    return DependenceProfile(measure=measure, values=np.array(values))


def _pami_lags(seq: SymbolSequence, h_max: int):
    """Yield (pami(h), cells, heads) for h = 1..h_max from one n-gram walk.

    At lag h the windows are level h+1, their left/right h-grams level h
    less its last/first position, their interiors level h-1 less both ends;
    so its cells and heads are ``build_counts(seq, h)``'s, zero totals kept."""
    _check_lag(seq, h_max, "h_max")
    mid, side = None, None
    for win in walk(seq.data, seq.alphabet.r, h_max + 1, DependenceError):
        if win.n >= 2:
            n = seq.T - side.n
            at = np.empty(win.counts.size, dtype=np.int64)
            at[win.ids] = np.arange(n)  # a position holding each window
            left, right, inner = side.ids[at], side.ids[at + 1], mid.ids[at + 1]
            cl = side.heads[left]
            cr = side.counts[right] - (right == side.ids[0])
            cm = mid.counts[inner] - (inner == mid.ids[0]) - (inner == mid.ids[-1])
            ratio = (win.counts * cm.astype(float)) / (cl * cr.astype(float))
            # a log ratio per distinct window, summed over positions in their order
            yield max(float(np.log(ratio)[win.ids].sum()) / n, 0.0), win.counts, side.heads
        mid, side = side, win


def select_k(prof: DependenceProfile) -> int:
    """Smallest lag attaining the maximum profile value."""
    values = prof.values
    if values.size == 0:
        raise DependenceError("empty profile")
    finite = np.isfinite(values)
    if not finite.any():
        raise DependenceError("profile has no finite values")
    best = np.where(finite, values, -np.inf)
    return int(np.argmax(best)) + 1
