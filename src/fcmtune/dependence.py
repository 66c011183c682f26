"""Serial-dependence measures for categorical sequences.

pami (partial auto mutual information) is the conditional mutual information
between symbols h apart given the symbols in between, the categorical
analogue of the partial autocorrelation function; its argmax lag is the
context-order selector; the one n-gram sort that gives it holds each lag
h's order-h count table.
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
# pami from sums of c*log(c) is 0 where it is within this share of its sums:
# the four sums round to a few ulps, and windows independent given their
# interiors, exactly, have pami 0
_ROUNDING = 64 * np.finfo(np.float64).eps


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
    """Yield (pami(h), cells, contexts) for h = 1..h_max from one n-gram sort.

    At lag h the windows are level h+1, their left/right h-grams level h
    less its last/first position, their interiors level h-1 less both ends;
    so levels h+1 and h (cells, contexts) give ``build_counts(seq, h)``'s
    table. pami(h)*(T-h) = S(windows) + S(interiors) - S(lefts) - S(rights),
    S the sum of c*log(c) over the counts c (``_sums``)."""
    _check_lag(seq, h_max, "h_max")
    sums = []
    for level in walk(seq.data, seq.alphabet.r, h_max + 1, DependenceError):
        sums.append(_sums(level))
        if level.n >= 2:
            h = level.n - 1
            whole = sums[h + 1][0] + sums[h - 1][3]
            s = whole - sums[h][1] - sums[h][2]
            yield s / (seq.T - h) if s > _ROUNDING * whole else 0.0, level, side
        side = level


def _sums(level) -> tuple[float, float, float, float]:
    """S of the level's counts: all of them, less the last position's gram,
    less the first's, less both. The sum runs over the counts' histogram in
    order of count value, and the ends move one count each: no label is
    read, so relabelling the alphabet moves no bit."""
    hist = np.bincount(level.counts)
    c = hist.nonzero()[0]
    s = float((hist[c] * (c * np.log(c))).sum())
    first, last = level.at(np.array([0, level.m - 1])).tolist()
    cf, cl = level.counts[[first, last]].tolist()
    less_last = s - _xlogx(cl) + _xlogx(cl - 1)
    less_first = s - _xlogx(cf) + _xlogx(cf - 1)
    if first == last:
        return s, less_last, less_first, s - _xlogx(cf) + _xlogx(cf - 2)
    return s, less_last, less_first, less_first - _xlogx(cl) + _xlogx(cl - 1)


def _xlogx(c: int) -> float:
    return c * math.log(c) if c > 1 else 0.0


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
