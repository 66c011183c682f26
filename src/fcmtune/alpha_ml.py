"""The order-k count table and the empirical-Bayes maximum-likelihood
estimate of its smoothing factor.

Each observed context contributes an independent multinomial count vector
whose marginal likelihood under a symmetric Dirichlet(alpha) prior is the
Dirichlet-multinomial (the multinomial coefficient, constant in alpha, is
omitted throughout). alpha* maximizes the joint log-marginal likelihood
over all contexts.

``CountMatrix`` is the one count table: ``fcm.build_counts`` builds it from
the n-gram walk, ``CountMatrix.from_rows`` from dense rows. The likelihood
reads only its occupancy coefficients A_j = #{(context, symbol): n > j} and
B_j = #{context: N > j}; ``log_likelihood`` of that pair is the one kernel
behind the fit, the bitrate and the grid search. It is the rising-factorial
form of the log-gamma expression (Minka 2000, counts-of-counts), exact for
N = 1 rows and free of large-argument cancellation. The fit's one alpha is
the 1-row case of the grid's arrays of alphas, so both agree bit for bit,
and at alpha = 0 the same sum is ``fcm``'s unsmoothed charge. The gradient
and curvature here differentiate it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

ALPHA_LO = 1e-6
ALPHA_HI = 1e12
REL_TOL = 1e-8
MAX_ITER = 200
# elements per row block of log_likelihood's array form: a T = 1e6, k = 1
# table has about 250k distinct j, so a whole 101-alpha column at once would
# take 200 MB per temporary; on a 2-core Xeon, 2**15 ran the long_dense
# benchmark's grids about 13% faster than 2**16
_BLOCK = 1 << 15
# interior golden-section point used when a Newton step leaves the bracket
_GOLDEN = (3.0 - np.sqrt(5.0)) / 2.0


class AlphaMlError(ValueError):
    """Invalid count matrix or alpha for likelihood evaluation."""


def occupancy(values: np.ndarray) -> np.ndarray:
    """Occupancy coefficients C_j = #{v in values: v > j}, j < max(values)."""
    return np.cumsum(np.bincount(values)[::-1])[::-1][1:]


def log_likelihood(a: np.ndarray, b: np.ndarray, alpha, r: int):
    """Dirichlet-multinomial log-marginal of a count table, the one place l is
    computed: l(alpha) = sum_j A_j*log(alpha+j) - B_j*log(r*alpha+j), with
    A, B the occupancy of the cells and of the context totals. The terms are
    combined per j before the sum, which keeps long runs of one context
    accurate; N = 1 rows contribute exactly log(1/r).

    A 1-d array of alphas gives the array of their l: the terms are laid out
    one row per alpha, in blocks of at most 2**15 elements, and each row is
    summed along its contiguous last axis. A float alpha gives the entry of
    its 1-row array, so every entry is bit for bit the float alpha's value.
    """
    alphas = np.atleast_1d(alpha)
    l = _by_rows(a, b, alphas, alphas, r)
    return l if isinstance(alpha, np.ndarray) else float(l[0])


def log_likelihood_bound(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                         r: int) -> np.ndarray:
    """An upper bound on l over each alpha interval [lo_i, hi_i], 0 < lo_i <= hi_i:
    both sums of ``log_likelihood`` rise with alpha, so there
    l(alpha) <= sum_j A_j*log(hi_i+j) - B_j*log(r*lo_i+j), which is the
    kernel's sum with hi in its cell terms and lo in its context terms. Each
    row is summed on its own, so at lo_i = hi_i the entry is bit for bit
    ``log_likelihood``'s value there."""
    return _by_rows(a, b, lo, hi, r)


def _by_rows(a, b, lo, hi, r):
    """Minus ``_summed_terms`` per entry of the 1-d lo and hi, one row each,
    in blocks of at most _BLOCK elements."""
    j = np.arange(b.size, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)[:, None]
    hi = np.asarray(hi, dtype=np.float64)[:, None]
    rows = max(1, _BLOCK // max(1, b.size))
    if lo.size <= rows:  # one block, summed straight into the result
        return -_summed_terms(a, b, j, lo, hi, r)
    out = np.empty(lo.size)
    for i in range(0, lo.size, rows):
        out[i:i + rows] = _summed_terms(a, b, j, lo[i:i + rows], hi[i:i + rows], r)
    return -out


def _summed_terms(a, b, j, lo, hi, r):
    """sum_j B_j*log(r*lo+j) - A_j*log(hi+j), -l at alpha = lo = hi: one per
    row of the columns lo and hi, or a float for floats (``fcm``'s alpha = 0)."""
    terms = j + r * lo
    np.log(terms, out=terms)
    terms *= b
    cells = j[:a.size] + hi
    np.log(cells, out=cells)
    cells *= a
    terms[..., :a.size] -= cells
    return np.add.reduce(terms, axis=-1)


@dataclass(frozen=True)
class CountMatrix:
    """The sparse order-k count table over r symbols, in lexicographic order:
    ``cells`` counts each (context, symbol) seen, ``totals`` each context
    followed by a symbol; nothing of a contexts x r array is stored. ``a`` and
    ``b`` (int64) are their occupancies, all the likelihood reads.
    ``truncated`` marks a sequence shorter than k. A table whose fields do
    not fit together raises ``AlphaMlError``.
    """

    k: int
    r: int
    cells: np.ndarray = field(repr=False)
    totals: np.ndarray = field(repr=False)
    truncated: bool = False
    a: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, low in (("k", 0), ("r", 1)):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < low:
                raise AlphaMlError(f"{name} must be an integer >= {low}, got {v!r}")
        for name in ("cells", "totals"):
            v = getattr(self, name)
            if not (isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype.kind in "iu"
                    and np.can_cast(v.dtype, np.int64) and v.min(initial=0) >= 0):
                raise AlphaMlError(f"{name} must be a 1-d array of non-negative "
                                   "integers that fit int64")
        if (self.cells.sum() != self.totals.sum()
                or self.cells.max(initial=0) > self.totals.max(initial=0)):
            raise AlphaMlError("cells and totals must hold the same mass, "
                               "with no cell above the largest total")
        object.__setattr__(self, "a", occupancy(self.cells))
        object.__setattr__(self, "b", occupancy(self.totals))

    @classmethod
    def _trusted(cls, k: int, r: int, cells: np.ndarray, totals: np.ndarray) -> "CountMatrix":
        """The table of fields that fit together by construction, as those of
        the n-gram walk do: ``a`` and ``b`` are computed, nothing is checked."""
        table = object.__new__(cls)
        vars(table).update(k=k, r=r, cells=cells, totals=totals, truncated=False,
                           a=occupancy(cells), b=occupancy(totals))
        return table

    @classmethod
    def from_rows(cls, rows, k: int = 0, r: int | None = None) -> "CountMatrix":
        """The table of dense rows, one per context (row order is kept); r
        defaults to the row width and may exceed it, never fall below it."""
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.dtype.kind not in "iuf" or not np.all(
                (arr == np.round(arr)) & (0 <= arr) & (arr < 2 ** 63)):
            raise AlphaMlError("rows must be a 2-d array of integers in 0..2**63-1")
        width = arr.shape[1]
        r = width if r is None else r
        if isinstance(r, numbers.Integral) and r < width:
            raise AlphaMlError(f"r must be >= the row width {width}, got {r!r}")
        arr = arr.astype(np.int64)
        totals = arr.sum(axis=1)
        return cls(k, r, arr[arr > 0], totals[totals > 0])

    @classmethod
    def from_counts(cls, counts: "CountMatrix") -> "CountMatrix":
        """The table itself: ``build_counts`` already returns a CountMatrix.
        Kept because the benchmark's traced round still calls it."""
        return counts

    @property
    def n_contexts(self) -> int:
        return int(self.totals.size)

    @property
    def total(self) -> int:
        """Total transition mass; equals T - k for an untruncated build."""
        return int(self.cells.sum())


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


def _bound_slope(counts: CountMatrix, alpha: float, j: np.ndarray) -> float:
    """alpha * dl/dalpha as sum_j j*(B_j/(r*alpha+j) - A_j/(alpha+j)): equal
    to alpha times ``_slopes``' gradient because sum A = sum B, and free of
    its cancellation at alpha = 1e12, where that gradient rounds to 0."""
    r, a, b = counts.r, counts.a, counts.b
    ja = j[:a.size]
    return float(b @ (j / (r * alpha + j)) - a @ (ja / (alpha + ja)))


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
    l need not be unimodal: when it rises towards a bound, the search still
    runs, and the bound is kept unless the point found is higher by more
    than 1e-8 relative (l is flat to rounding near the bounds).
    When every context was seen at most once, l is constant in alpha; the
    fit is flagged degenerate and alpha* defaults to 1 (Laplace).
    """
    if counts.n_contexts == 0:
        raise AlphaMlError("count matrix has no contexts")
    like = partial(total_log_likelihood, counts)
    j = np.arange(counts.b.size, dtype=float)
    if int(counts.totals.max()) <= 1:
        return AlphaFit(alpha_star=1.0, log_likelihood=like(1.0),
                        converged=True, hit_bound=False, iterations=0,
                        degenerate=True)
    bound = next((bound for bound, outward in ((ALPHA_LO, -1.0), (ALPHA_HI, 1.0))
                  if outward * _bound_slope(counts, bound, j) >= 0), None)
    cut = np.inf  # the search stops where l is known to rise up to ALPHA_HI
    if bound == ALPHA_HI:
        # alpha * dl/dalpha = M0 - R, M0 = sum_j j*(B_j/r - A_j), and
        # |R| <= (sum_j j^2*B_j/r^2 + sum_j j^2*A_j)/alpha, so for M0 > 0 l
        # rises with no peak from cut on
        r, a, b = counts.r, counts.a, counts.b
        r_m0 = int(np.arange(b.size) @ b) - r * int(np.arange(a.size) @ a)  # exact
        if r_m0 > 0:
            cut = (float(j ** 2 @ b) / r ** 2 + float(j[:a.size] ** 2 @ a)) * r / r_m0

    lo, hi = np.log(ALPHA_LO), np.log(ALPHA_HI)
    theta = 0.0  # alpha = 1
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        alpha = float(np.exp(theta))
        g, h = _slopes(counts, alpha, j)
        if g > 0 and alpha > cut:
            break
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
    l_star = like(alpha_star)
    if bound is not None:
        l_bound = like(bound)
        if l_star - l_bound <= REL_TOL * abs(l_bound):
            alpha_star, l_star, converged = bound, l_bound, True
    hit = bool(alpha_star <= np.nextafter(ALPHA_LO, np.inf)
               or alpha_star >= np.nextafter(ALPHA_HI, -np.inf))
    return AlphaFit(alpha_star=alpha_star, log_likelihood=l_star,
                    converged=converged, hit_bound=hit, iterations=iterations)
