"""Correctness checks for the benchmark, independent of the fcmtune package.

Every oracle here is written from the definitions alone: a dict replay of
the adaptive Lidstone model, one symbol at a time, and a brute-force
``collections.Counter`` conditional mutual information. Only numpy and the
standard library are used, so a fault in the package cannot hide in a
shared helper. Sequences are passed as ``bytes`` of symbol indices.

Each ``check_*`` function returns ``None`` when the result is correct and a
one-line reason when it is not.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter

import numpy as np

REL_TOL = 1e-9
# the coder tracks the theoretical bitrate to about 0.001 bits/symbol
# (frequency quantization) plus 6 bytes of coder overhead
SLACK_BPS = 0.001
OVERHEAD_BITS = 48
FLOOR_BITS = 32.0
TIE_TOL = 1e-12


def occurrences(sym: bytes, k: int) -> tuple[list[int], list[int]]:
    """Replay the sequence through dicts of gram counts.

    For each prediction position t >= k, returns how often the window
    sym[t-k..t] (m) and its context sym[t-k..t-1] (M) occurred before t.
    """
    grams: dict[bytes, int] = {}
    contexts: dict[bytes, int] = {}
    m, big_m = [], []
    for t in range(k, len(sym)):
        ctx = sym[t - k:t]
        gram = sym[t - k:t + 1]
        n_ctx = contexts.get(ctx, 0)
        n_gram = grams.get(gram, 0)
        big_m.append(n_ctx)
        m.append(n_gram)
        contexts[ctx] = n_ctx + 1
        grams[gram] = n_gram + 1
    return m, big_m


def replay_bits(sym: bytes, k: int, alpha: float, r: int) -> float:
    """Total bits of the adaptive order-k Lidstone replay.

    The first min(k, T) symbols cost log2(r) each; every later symbol costs
    -log2((n_s + alpha) / (N + r*alpha)) with the counts seen so far. With
    alpha = 0 an unseen symbol is charged 32 bits.
    """
    total = min(k, len(sym)) * math.log2(r)
    m, big_m = occurrences(sym, k)
    for n_s, n in zip(m, big_m):
        if alpha > 0:
            total -= math.log2((n_s + alpha) / (n + r * alpha))
        elif n_s:
            total -= math.log2(n_s / n)
        else:
            total += FLOOR_BITS
    return total


class LatticeBits:
    """Bits of the order-k replay at any alpha > 0, from one dict replay.

    Only the multiset of (m, M) matters for alpha > 0, so the replay is
    reduced to two histograms once and every alpha costs a dot product.
    """

    def __init__(self, sym: bytes, k: int, r: int):
        m, big_m = occurrences(sym, k)
        self.r = r
        self.boot = min(k, len(sym)) * math.log2(r)
        self.hist_m = np.bincount(np.asarray(m, dtype=np.int64), minlength=1)
        self.hist_big_m = np.bincount(np.asarray(big_m, dtype=np.int64), minlength=1)

    def bits(self, alpha: float) -> float:
        j_m = np.arange(self.hist_m.size)
        j_big = np.arange(self.hist_big_m.size)
        return float(self.boot
                     + self.hist_big_m @ np.log2(j_big + self.r * alpha)
                     - self.hist_m @ np.log2(j_m + alpha))


def cmi_profile(sym: bytes, h_max: int) -> list[float]:
    """Plug-in conditional mutual information I(Y_t; Y_t+h | in-between), nats.

    Over the N = T - h windows of length h+1, each window w contributes
    c(w)/N * log(c(w) c(mid) / (c(left) c(right))), where left and right
    are its leading and trailing h-grams and mid its interior (h-1)-gram,
    counted at the positions the windows cover. Clamped at 0 like the
    package's pami.
    """
    length = len(sym)
    # grams[L]: counts of every length-L substring, positions 0..T-L
    grams = [Counter(map(sym.__getitem__, map(slice, range(length - size + 1),
                                                  range(size, length + 1))))
             for size in range(h_max + 2)]
    out = []
    for h in range(1, h_max + 1):
        n = length - h
        windows = grams[h + 1]
        left = grams[h].copy()       # h-grams at positions 0..n-1
        left[sym[n:]] -= 1
        right = grams[h].copy()      # h-grams at positions 1..n
        right[sym[:h]] -= 1
        mid = grams[h - 1].copy()    # (h-1)-grams at positions 1..n
        mid[sym[:h - 1]] -= 1
        mid[sym[n + 1:]] -= 1

        def counts_of(table, part):
            return np.fromiter(map(table.__getitem__, map(itemgetter(part), windows)),
                               float, len(windows))

        c = np.fromiter(windows.values(), float, len(windows))
        ratio = (c * counts_of(mid, slice(1, -1))
                 / (counts_of(left, slice(None, -1)) * counts_of(right, slice(1, None))))
        out.append(max(float(c @ np.log(ratio)) / n, 0.0))
    return out


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def check_decode(text_in: str, text_out: str) -> str | None:
    if text_in != text_out:
        first = next((i for i, (x, y) in enumerate(zip(text_in, text_out)) if x != y),
                     min(len(text_in), len(text_out)))
        return f"decoded text differs from the input at offset {first}"
    return None


def check_bitrate(program_bits: float, oracle_bits: float) -> str | None:
    if _rel_gap(program_bits, oracle_bits) > REL_TOL:
        return f"bitrate {program_bits!r} bits != dict replay {oracle_bits!r} bits"
    return None


def check_coded_size(payload_bytes: int, theory_bits: float, length: int) -> str | None:
    """The payload stays within the quantization slack plus coder overhead."""
    coded = 8 * payload_bytes
    if not (theory_bits - SLACK_BPS * length
            <= coded
            <= theory_bits + SLACK_BPS * length + OVERHEAD_BITS):
        return (f"payload {coded} bits is outside {theory_bits:.1f} bits "
                f"- {SLACK_BPS} bps .. + {SLACK_BPS} bps + {OVERHEAD_BITS} bits")
    return None


def check_alpha_star(lattice: LatticeBits, alpha_star: float, alpha_grid) -> str | None:
    """alpha* maximizes the likelihood, so no lattice alpha > 0 codes shorter.

    total_bits = min(k,T)*log2(r) - l(alpha)/ln 2, so the bits at the
    maximum-likelihood alpha* are at most the bits at any other alpha.
    """
    best = lattice.bits(alpha_star)
    for a in alpha_grid:
        if a > 0 and lattice.bits(a) < best - REL_TOL * abs(best):
            return f"alpha {a} codes in fewer bits than alpha* = {alpha_star!r}"
    return None


def check_grid(grid_bits: float, rounded_bits: float) -> str | None:
    """The grid minimum is no worse than the two-step pick rounded onto the lattice."""
    if grid_bits > rounded_bits + REL_TOL * abs(rounded_bits):
        return f"grid bits {grid_bits!r} exceed {rounded_bits!r} at the rounded two-step pair"
    return None


def round_to_lattice(alpha: float, alpha_grid) -> float:
    return min(alpha_grid, key=lambda a: (abs(a - alpha), a))


def check_k_star(profile: list[float], k_star: int) -> str | None:
    """k* attains the brute-force profile maximum, up to ties within 1e-12."""
    if not 1 <= k_star <= len(profile):
        return f"k* = {k_star} is outside lags 1..{len(profile)}"
    top = max(profile)
    if profile[k_star - 1] < top - TIE_TOL:
        return (f"k* = {k_star} has CMI {profile[k_star - 1]!r}, below the "
                f"maximum {top!r} at lag {profile.index(top) + 1}")
    return None
