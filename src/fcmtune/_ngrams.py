"""The one n-gram walk behind pami, the count table and every replay: level
n ranks the n-grams at positions 0..T-n in lexicographic order from the
(n-1)-prefix ranks (Manber & Myers 1993), so no window width is capped."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class Level:
    n: int
    ids: np.ndarray     # rank id of the gram at each position 0..T-n
    counts: np.ndarray  # positions holding each id
    order: np.ndarray   # positions sorted by (id, position)

    @cached_property
    def occ(self) -> np.ndarray:
        """Earlier positions holding the same gram, per position."""
        occ, first = np.empty_like(self.order), np.cumsum(self.counts) - self.counts
        occ[self.order] = np.arange(occ.size) - np.repeat(first, self.counts)
        return occ

    @cached_property
    def heads(self) -> np.ndarray:
        """Positions 0..T-n-1 holding each gram: the gram at T-n precedes no symbol."""
        heads = self.counts.copy()
        heads[self.ids[-1]] -= 1
        return heads


def walk(data: np.ndarray, r: int, n_max: int, error: type[Exception]):
    """Yield levels 0 (the empty gram at positions 0..T) to min(n_max, T).

    Level n sorts key*m + position, key = id_{n-1}*r + x[t+n-1], over its m
    positions; exact while U*r*m < 2**63 (U: grams of level n-1), else
    ``error`` is raised."""
    T = data.size
    ids, counts = np.zeros(T + 1, dtype=np.int64), np.array([T + 1])
    yield Level(0, ids, counts, np.arange(T + 1))
    for n in range(1, min(n_max, T) + 1):
        m = T - n + 1
        if counts.size * r * m >= 2 ** 63:
            raise error(f"{n}-grams of {T} symbols over r={r} exceed the int64 sort keys")
        srt = np.sort((ids[:m] * r + data[n - 1:]) * m + np.arange(m))
        key = srt // m
        order = srt - key * m
        # group bounds: 0, each position whose key differs from the one before, m
        edge = np.empty(m + 1, dtype=bool)
        edge[0] = edge[m] = True
        np.not_equal(key[1:], key[:-1], out=edge[1:m])
        bounds = np.flatnonzero(edge)
        counts = bounds[1:] - bounds[:-1]
        ids = np.empty(m, dtype=np.int64)
        ids[order] = np.repeat(np.arange(counts.size), counts)
        yield Level(n, ids, counts, order)
