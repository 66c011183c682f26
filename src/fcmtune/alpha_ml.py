"""Empirical-Bayes maximum-likelihood estimation of the smoothing factor.

Each observed context contributes an independent multinomial count vector
whose marginal likelihood under a symmetric Dirichlet(alpha) prior is the
Dirichlet-multinomial (the multinomial coefficient, constant in alpha, is
omitted throughout). alpha* maximizes the joint log-marginal likelihood
over all contexts.

The likelihood is ``fcm.log_likelihood`` of the occupancy coefficients
A_j = #{(context, symbol): n > j} and B_j = #{context: N > j}, the kernel
behind the bitrate and the grid search too; it is the rising-factorial form
of the log-gamma expression, exact for N = 1 rows and free of large-argument
cancellation. The gradient and curvature here differentiate the same sum.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fcm import ContextCounts, log_likelihood, occupancy

ALPHA_LO = 1e-6
ALPHA_HI = 1e12
REL_TOL = 1e-8
MAX_ITER = 200
# interior golden-section point used when a Newton step leaves the bracket
_GOLDEN = (3.0 - np.sqrt(5.0)) / 2.0


class AlphaMlError(ValueError):
    """Invalid count matrix or alpha for likelihood evaluation."""


@dataclass(frozen=True)
class CountMatrix:
    """The contexts of a count table seen at least once, as the likelihood
    reads them: totals[g] is the total count of context g; a[j] and b[j]
    (floats) count the cells and the contexts whose count exceeds j.
    """

    k: int
    r: int
    totals: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    @classmethod
    def from_rows(cls, rows, k: int = 0, r: int | None = None) -> "CountMatrix":
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.dtype.kind not in "iuf" or not np.all(
                (arr == np.round(arr)) & (0 <= arr) & (arr < 2 ** 63)):
            raise AlphaMlError("rows must be a 2-d array of integers in 0..2**63-1")
        r = arr.shape[1] if r is None else r
        if not isinstance(r, numbers.Integral) or isinstance(r, bool) or r < 1:
            raise AlphaMlError(f"r must be an integer >= 1, got {r!r}")
        arr = arr.astype(np.int64)
        totals = arr.sum(axis=1)
        return cls(k, r, totals[totals >= 1],
                   occupancy(arr.ravel()).astype(float), occupancy(totals).astype(float))

    @classmethod
    def from_counts(cls, counts: ContextCounts) -> "CountMatrix":
        return cls(counts.k, counts.r, counts.totals, counts.a.astype(float), counts.b.astype(float))

    @property
    def n_rows(self) -> int:
        return int(self.totals.size)


@dataclass(frozen=True)
class AlphaFit:
    """Result of the alpha maximum-likelihood search."""

    alpha_star: float
    log_likelihood: float
    converged: bool
    hit_bound: bool
    iterations: int
    degenerate: bool = False


def _slopes(counts: CountMatrix, alpha: float, j: np.ndarray) -> tuple[float, float]:
    """dl/dalpha and d2l/dalpha2 at alpha; j = 0, 1, ... over b."""
    r, a, b = counts.r, counts.a, counts.b
    xa, xb = alpha + j[:a.size], r * alpha + j
    return (float(a @ (1.0 / xa) - r * (b @ (1.0 / xb))),
            float(-a @ (1.0 / xa ** 2) + r ** 2 * (b @ (1.0 / xb ** 2))))


def dm_log_marginal(row, alpha: float, r: int) -> float:
    """Log Dirichlet-multinomial marginal of one count vector.

    log[ Gamma(r*alpha)/Gamma(N+r*alpha) * prod_s Gamma(n_s+alpha)/Gamma(alpha) ],
    multinomial coefficient omitted. An N = 1 row is exactly log(1/r) for
    every alpha; an empty row contributes 0.
    """
    return total_log_likelihood(CountMatrix.from_rows(np.reshape(row, (1, -1)), r=r), alpha)


def _alpha(alpha) -> float:
    if not isinstance(alpha, numbers.Real) or not 0 < alpha < np.inf:
        raise AlphaMlError(f"alpha must be a finite value > 0, got {alpha!r}")
    return float(alpha)


def total_log_likelihood(counts: CountMatrix, alpha: float) -> float:
    """Joint log-marginal likelihood l(alpha) summed over all contexts."""
    return log_likelihood(counts.a, counts.b, _alpha(alpha), counts.r)


def log_likelihood_gradient(counts: CountMatrix, alpha: float) -> float:
    """dl/dalpha; equals the digamma form
    sum_g [ r*psi(r*alpha) - r*psi(N_g+r*alpha) + sum_s (psi(n_gs+alpha) - psi(alpha)) ].
    """
    return _slopes(counts, _alpha(alpha), np.arange(counts.b.size, dtype=float))[0]


def fit_alpha(counts: CountMatrix) -> AlphaFit:
    """Maximize l over alpha in [1e-6, 1e12].

    Newton steps on log(alpha) with the analytic gradient and curvature,
    falling back to the golden-section interior point of the current
    bracket whenever the Newton step leaves it or the curvature is not
    concave. Converges when the relative change in alpha drops below 1e-8.
    When every context was seen at most once, l is constant in alpha; the
    fit is flagged degenerate and alpha* defaults to 1 (Laplace).
    """
    if counts.n_rows == 0:
        raise AlphaMlError("count matrix has no rows")
    like = partial(total_log_likelihood, counts)
    j = np.arange(counts.b.size, dtype=float)
    if int(counts.totals.max()) <= 1:
        return AlphaFit(alpha_star=1.0, log_likelihood=like(1.0),
                        converged=True, hit_bound=False, iterations=0,
                        degenerate=True)
    for bound, outward in ((ALPHA_LO, -1.0), (ALPHA_HI, 1.0)):
        if outward * _slopes(counts, bound, j)[0] >= 0:  # l peaks at the bound
            return AlphaFit(alpha_star=bound, log_likelihood=like(bound),
                            converged=True, hit_bound=True, iterations=0)

    lo, hi = np.log(ALPHA_LO), np.log(ALPHA_HI)
    theta = 0.0  # alpha = 1
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        alpha = float(np.exp(theta))
        g, h = _slopes(counts, alpha, j)
        if g > 0:
            lo = theta
        else:
            hi = theta
        # chain rule to log-alpha coordinates
        g_t = alpha * g
        h_t = alpha * alpha * h + g_t
        if h_t < 0:
            step = theta - g_t / h_t
        else:
            step = np.inf
        if lo < step < hi:
            new = step
        else:
            new = lo + _GOLDEN * (hi - lo)
        done = abs(new - theta) < REL_TOL
        theta = new
        if done:
            converged = True
            break

    alpha_star = float(np.exp(theta))
    hit = bool(alpha_star <= np.nextafter(ALPHA_LO, np.inf)
               or alpha_star >= np.nextafter(ALPHA_HI, -np.inf))
    return AlphaFit(alpha_star=alpha_star, log_likelihood=like(alpha_star),
                    converged=converged, hit_bound=hit, iterations=iterations)
