"""Order-k finite-context models: counting, Lidstone prediction, adaptive
generation, and the theoretical bitrate of the adaptive replay.

The model predicts the next symbol from the previous k symbols with the
Lidstone estimator P(s|c) = (n_s + alpha) / (sum_a n_a + r*alpha); alpha = 1
is Laplace, alpha = 1/2 the Jeffreys/Krichevsky-Trofimov rule.
For alpha > 0 the replay's total bits are min(k, T)*log2(r) - l(alpha)/ln 2,
with l from ``alpha_ml.log_likelihood`` of the order-k count table
``alpha_ml.CountMatrix``, which ``build_counts`` reads off levels k+1 and k
of the one n-gram sort: the bitrate, the grid and the alpha fit share one
table and one kernel, at alpha = 0 too (``_unsmoothed_bits``). ``bitrate``
charges one (k, alpha) point; the grid search charges from one sort only the
points of its lattice that its bounds do not prove worse than a charged one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from ._ngrams import walk
from .alpha_ml import CountMatrix, _summed_terms, log_likelihood
from .sequences import DEFAULT_ALPHABET, Alphabet, SymbolSequence

# Probability floor for alpha = 0 evaluation: an unseen symbol in a seen
# context has empirical probability 0; it is charged 32 bits instead of
# infinity and the event is counted.
FLOOR_BITS = 32.0
_LN2 = math.log(2.0)
# uniforms per Python-float chunk of generate's loop: about 130 kB of floats
# at a time, not T of them
_GENERATE_CHUNK = 4096


class FcmError(ValueError):
    """Invalid model parameters or sequence/model mismatch."""


@dataclass(frozen=True)
class HyperParams:
    """Context order k and smoothing factor alpha."""

    k: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.k, numbers.Integral) or isinstance(self.k, bool) or self.k < 0:
            raise FcmError(f"k must be an integer >= 0, got {self.k!r}")
        if not isinstance(self.alpha, numbers.Real) or not 0 <= self.alpha < math.inf:
            raise FcmError(f"alpha must be a finite value >= 0, got {self.alpha!r}")

    @property
    def no_smoothing(self) -> bool:
        return self.alpha == 0.0


@dataclass(frozen=True)
class BitrateResult:
    """Theoretical average bitrate of the adaptive replay."""

    bits_per_symbol: float
    total_bits: float
    symbols_coded: int
    floored_events: int = 0


def lidstone_prob(counts, s: int, alpha: float, r: int) -> float:
    """Lidstone estimate (n_s + alpha) / (sum_a n_a + r*alpha).

    With alpha = 0 and an all-zero count vector the distribution is
    undefined; callers evaluating bitrates apply the probability floor
    policy instead of calling this. ``counts`` must have r entries and s
    must index one of them.
    """
    if not isinstance(alpha, numbers.Real) or not 0 <= alpha < math.inf:
        raise FcmError(f"alpha must be a finite value >= 0, got {alpha!r}")
    counts = np.asarray(counts)
    if not isinstance(r, numbers.Integral) or isinstance(r, bool) or r < 1 or counts.shape != (r,):
        raise FcmError(f"r must be an integer >= 1 equal to the length of counts, got {r!r}")
    if not isinstance(s, numbers.Integral) or isinstance(s, bool) or not 0 <= s < r:
        raise FcmError(f"s must be a symbol index in 0..{r - 1}, got {s!r}")
    total = counts.sum()
    if alpha == 0.0 and total == 0:
        raise FcmError("alpha = 0 with an empty context gives an undefined distribution")
    return float((counts[s] + alpha) / (total + r * alpha))


def build_counts(seq: SymbolSequence, k: int) -> CountMatrix:
    """Count every order-k transition of the sequence.

    For each position t in {k, ..., T-1} the count of seq[t-k..t-1] -> seq[t]
    is incremented; the total mass is exactly T - k. The result is the
    sparse table ``fit_alpha`` reads directly. With T < k + 1 no window fits
    and an empty table is returned, ``truncated`` if T < k.
    """
    for table, _, _ in _replays(seq, [k]):
        return table
    empty = np.empty(0, dtype=np.int64)
    return CountMatrix(k, seq.alphabet.r, empty, empty, truncated=seq.T < k)


def generate(
    params: HyperParams,
    T: int,
    seed: int,
    alphabet: Alphabet = DEFAULT_ALPHABET,
) -> SymbolSequence:
    """Generate a sequence from an adaptive order-k FCM.

    The first min(k, T) symbols are i.i.d. uniform over the alphabet; every
    later symbol is drawn from the Lidstone predictive distribution given the
    counts accumulated over the prefix generated so far, after which the
    counts are updated with the emitted symbol. Sampling is inverse-CDF in
    alphabet index order on a PCG64 stream, so output is a deterministic
    function of (params, T, seed).
    """
    if not isinstance(T, numbers.Integral) or isinstance(T, bool) or T < 1:
        raise FcmError(f"T must be an integer >= 1, got {T!r}")
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise FcmError(f"seed must be an integer >= 0, got {seed!r}")
    if params.alpha <= 0:
        raise FcmError("generation requires alpha > 0; the first visit to a "
                       "context is undefined without smoothing")
    r = alphabet.r
    k = params.k
    alpha = float(params.alpha)
    ralpha = r * alpha
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(T)
    out = np.empty(T, dtype=np.int64)
    nboot = min(k, T)
    last = r - 1
    boot = [min(int(x * r), last) for x in u[:nboot].tolist()]
    out[:nboot] = boot
    rk = r ** nboot  # a k >= T never reads a context code: r**k would only waste memory
    code = 0
    for s in boot:
        code = (code * r + s) % rk
    counts: dict[int, list[int]] = {}
    # the loop reads Python floats, _GENERATE_CHUNK at a time; they are the
    # uniforms' exact values, so every symbol is the float64 draw's
    for lo in range(nboot, T, _GENERATE_CHUNK):
        syms = []
        for x in u[lo:lo + _GENERATE_CHUNK].tolist():
            vec = counts.get(code)
            if vec is None:
                # empty counts: the Lidstone predictive is exactly uniform
                s = int(x * r)
                if s > last:
                    s = last
                counts[code] = vec = [0] * (r + 1)
            else:
                y = x * (vec[r] + ralpha)
                acc = 0.0
                s = last
                for i in range(last):
                    acc += vec[i] + alpha
                    if y < acc:
                        s = i
                        break
            syms.append(s)
            vec[s] += 1
            vec[r] += 1
            code = (code * r + s) % rk
        out[lo:lo + len(syms)] = syms
    return SymbolSequence(alphabet, out)


def _check_k(k) -> None:
    """Raise FcmError unless k is an integer >= 0, as HyperParams does; a
    plain int needs no HyperParams built."""
    if type(k) is not int or k < 0:
        HyperParams(k, 0.0)


def _check_alpha(alpha) -> None:
    """Raise FcmError unless alpha is finite and >= 0, as HyperParams does; a
    plain float needs no HyperParams built."""
    if type(alpha) is not float or not 0.0 <= alpha < math.inf:
        HyperParams(0, alpha)


def _replays(seq: SymbolSequence, ks):
    """(table, cells, contexts) per k of ks below T: the order-k table, levels k+1, k."""
    for k in ks:
        _check_k(k)
    ks = set(ks)
    for contexts, cells in pairwise(walk(seq.data, seq.alphabet.r, max(ks) + 1, FcmError)):
        if cells.n - 1 in ks:
            yield _table(cells, contexts, seq.alphabet.r), cells, contexts


def _table(cells, contexts, r: int) -> CountMatrix:
    """The order-k table of n-gram levels k+1 (cells) and k (contexts)."""
    totals = contexts.heads
    return CountMatrix._trusted(contexts.n, r, cells.counts, totals[totals > 0])


def replay_occurrences(seq: SymbolSequence, k: int):
    """Prior-occurrence counts driving the adaptive replay at order k.

    For each prediction position t in {k, ..., T-1}, m[t-k] is the number of
    earlier positions with the same (k+1)-gram ending at t, and M[t-k] the
    number of earlier positions with the same k-gram context; the adaptive
    Lidstone charge at t is (m + alpha) / (M + r*alpha). Always m <= M.
    """
    for _, cells, contexts in _replays(seq, [k]):
        return cells.occ, contexts.occ[:cells.occ.size]
    return (np.empty(0, dtype=np.int64),) * 2


def _total_bits(k: int, T: int, log2r: float, l):
    """The replay's total bits at alpha > 0 from l(alpha) of its count table
    (a float, or an array of them)."""
    return min(k, T) * log2r - l / _LN2


def _result(seq: SymbolSequence, total: float, floored: int = 0) -> BitrateResult:
    return BitrateResult(bits_per_symbol=total / seq.T, total_bits=total,
                         symbols_coded=seq.T, floored_events=floored)


def prediction_bits(m: np.ndarray, M: np.ndarray, alpha: float, r: int):
    """Total bits charged over the prediction positions, plus floored count.

    m, M: the prior-occurrence counts of one whole replay, as from
    ``replay_occurrences`` (integers, 0 <= m <= M); they are charged from
    their histograms, at alpha = 0 also from that of M where m = 0."""
    a, b = np.bincount(m), np.bincount(M)
    if alpha == 0.0:
        return _unsmoothed_bits(a, b - np.bincount(M[m == 0], minlength=b.size))
    return -log_likelihood(a, b, alpha, r) / _LN2, 0


def _unsmoothed_bits(a: np.ndarray, bh: np.ndarray) -> tuple[float, int]:
    """(bits, floored_events) of the alpha = 0 charges of a whole replay.

    a[j] counts the positions with m = j, bh[j] those with m > 0 and M = j.
    The replay charges FLOOR_BITS where m = 0 and log2(M/m) elsewhere, so in
    all FLOOR_BITS*a[0] + sum_{j>=1} (bh[j] - a[j])*log2(j): the likelihood
    kernel at alpha = 0, from j = 1."""
    floored = int(a[:1].sum())
    j = np.arange(1, bh.size, dtype=np.float64)
    bits = float(_summed_terms(a[1:], bh[1:], j, 0.0, 0.0, 1)) / _LN2
    return FLOOR_BITS * floored + bits, floored


def _unsmoothed(table: CountMatrix, cells, contexts, log2r: float) -> tuple[float, int]:
    """(total_bits, floored_events) of the alpha = 0 replay of the order-k
    table, k < T, from n-gram levels k+1 (cells) and k (contexts): the
    histograms of m and M are a and b, and m = 0 at each cell's first
    position, where M is searched in the contexts' positional sort."""
    first = contexts.occ_at(cells.order[np.cumsum(cells.counts) - cells.counts])
    bits, floored = _unsmoothed_bits(table.a, table.b - np.bincount(first, minlength=table.b.size))
    return table.k * log2r + bits, floored


def bitrate(seq: SymbolSequence, params: HyperParams) -> BitrateResult:
    """Theoretical average bitrate of the adaptive replay.

    Positions t < k are charged log2(r) bits each (uniform bootstrap); every
    later one -log2 of the Lidstone probability of its symbol given the
    counts so far, which for alpha > 0 sums to min(k, T)*log2(r) - l/ln 2 of
    the count table. At alpha = 0 zero-probability events are charged the
    probability floor and counted in ``floored_events``.
    """
    if seq.T < 1:
        raise FcmError("bitrate needs T >= 1")
    r, log2r = seq.alphabet.r, float(np.log2(seq.alphabet.r))
    for table, cells, contexts in _replays(seq, [params.k]):
        if params.no_smoothing:
            return _result(seq, *_unsmoothed(table, cells, contexts, log2r))
        l = log_likelihood(table.a, table.b, params.alpha, r)
        return _result(seq, _total_bits(table.k, seq.T, log2r, l))
    return _result(seq, seq.T * log2r)  # k >= T predicts no symbol: the bootstrap alone
