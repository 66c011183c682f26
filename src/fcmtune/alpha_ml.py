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

from dataclasses import dataclass, field

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
    """Context count vectors with at least one observation each.

    rows[g] is the length-r count vector of context g; totals[g] its sum.
    Row order carries no information: the likelihood is invariant under it.
    """

    k: int
    r: int
    rows: np.ndarray = field(repr=False)
    totals: np.ndarray = field(repr=False)

    @classmethod
    def from_rows(cls, rows, k: int = 0, r: int | None = None) -> "CountMatrix":
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            raise AlphaMlError("rows must be a 2-d count array")
        if np.any(arr < 0):
            raise AlphaMlError("counts must be >= 0")
        totals = arr.sum(axis=1)
        keep = totals >= 1
        arr = arr[keep]
        return cls(k=k, r=r if r is not None else arr.shape[1],
                   rows=arr, totals=totals[keep])

    @classmethod
    def from_counts(cls, counts: ContextCounts) -> "CountMatrix":
        return cls.from_rows(counts.counts, k=counts.k, r=counts.r)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True)
class AlphaFit:
    """Result of the alpha maximum-likelihood search."""

    alpha_star: float
    log_likelihood: float
    converged: bool
    hit_bound: bool
    iterations: int
    degenerate: bool = False


class _Likelihood:
    """l(alpha) and its first two derivatives from occupancy coefficients."""

    def __init__(self, rows: np.ndarray, totals: np.ndarray, r: int):
        self.r = r
        self.a = occupancy(rows.ravel()).astype(np.float64)
        self.b = occupancy(totals).astype(np.float64)
        self.ja = np.arange(self.a.size, dtype=np.float64)
        self.jb = np.arange(self.b.size, dtype=np.float64)

    def value(self, alpha: float) -> float:
        return log_likelihood(self.a, self.b, alpha, self.r)

    def grad(self, alpha: float) -> float:
        return float(self.a @ (1.0 / (alpha + self.ja))
                     - self.r * (self.b @ (1.0 / (self.r * alpha + self.jb))))

    def hess(self, alpha: float) -> float:
        return float(-self.a @ (1.0 / (alpha + self.ja) ** 2)
                      + self.r ** 2 * (self.b @ (1.0 / (self.r * alpha + self.jb) ** 2)))


def dm_log_marginal(row, alpha: float, r: int) -> float:
    """Log Dirichlet-multinomial marginal of one count vector.

    log[ Gamma(r*alpha)/Gamma(N+r*alpha) * prod_s Gamma(n_s+alpha)/Gamma(alpha) ],
    multinomial coefficient omitted. An N = 1 row is exactly log(1/r) for
    every alpha; an empty row contributes 0.
    """
    if alpha <= 0:
        raise AlphaMlError("alpha must be > 0")
    arr = np.asarray(row, dtype=np.int64).ravel()
    if np.any(arr < 0):
        raise AlphaMlError("counts must be >= 0")
    return log_likelihood(occupancy(arr), occupancy(arr.sum(keepdims=True)), float(alpha), r)


def total_log_likelihood(counts: CountMatrix, alpha: float) -> float:
    """Joint log-marginal likelihood l(alpha) summed over all contexts."""
    if alpha <= 0:
        raise AlphaMlError("alpha must be > 0")
    return _Likelihood(counts.rows, counts.totals, counts.r).value(float(alpha))


def log_likelihood_gradient(counts: CountMatrix, alpha: float) -> float:
    """dl/dalpha; equals the digamma form
    sum_g [ r*psi(r*alpha) - r*psi(N_g+r*alpha) + sum_s (psi(n_gs+alpha) - psi(alpha)) ].
    """
    if alpha <= 0:
        raise AlphaMlError("alpha must be > 0")
    return _Likelihood(counts.rows, counts.totals, counts.r).grad(float(alpha))


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
    like = _Likelihood(counts.rows, counts.totals, counts.r)
    if int(counts.totals.max()) <= 1:
        return AlphaFit(alpha_star=1.0, log_likelihood=like.value(1.0),
                        converged=True, hit_bound=False, iterations=0,
                        degenerate=True)
    if like.grad(ALPHA_LO) <= 0:
        return AlphaFit(alpha_star=ALPHA_LO, log_likelihood=like.value(ALPHA_LO),
                        converged=True, hit_bound=True, iterations=0)
    if like.grad(ALPHA_HI) >= 0:
        return AlphaFit(alpha_star=ALPHA_HI, log_likelihood=like.value(ALPHA_HI),
                        converged=True, hit_bound=True, iterations=0)

    lo, hi = np.log(ALPHA_LO), np.log(ALPHA_HI)
    theta = 0.0  # alpha = 1
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        alpha = float(np.exp(theta))
        g = like.grad(alpha)
        if g > 0:
            lo = theta
        else:
            hi = theta
        # chain rule to log-alpha coordinates
        g_t = alpha * g
        h_t = alpha * alpha * like.hess(alpha) + g_t
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
    return AlphaFit(alpha_star=alpha_star, log_likelihood=like.value(alpha_star),
                    converged=converged, hit_bound=hit, iterations=iterations)
