"""The one n-gram sort behind pami, the count tables and every replay.

Each position's next symbols are packed into one int64 key, base r+1 with
digit x+1 and 0 past the end, and the keys are sorted once: level n's grams
are the runs of the sorted keys cut to their first n digits, in
lexicographic order, less the runs whose n-th digit is 0 (they run past the
end). Where (r+1)^n_max passes 2^63, each further sort packs as many digits
as fit after the ids of the last level reached (the prefix ranks of Manber
& Myers 1993), so no window width is capped. Counting k-mers by sorting
packed keys is Jellyfish's way (Marcais & Kingsford 2011). No level holds
a value per position until a reader asks: the gram at a position is a
search of the level's keys, and a level's positions are sorted only for
the readers that need them in gram order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_KEYS = 2 ** 63  # int64 sort keys hold the values below this


@dataclass(eq=False)
class Level:
    n: int
    m: int              # positions 0..m-1 = 0..T-n
    counts: np.ndarray  # positions holding each gram, in lexicographic order
    keys: np.ndarray = field(repr=False)    # each gram's key, ascending
    packed: np.ndarray = field(repr=False)  # the packed key at each position
    div: int = field(repr=False)            # a gram's key is its position's packed // div

    def at(self, t):
        """Ids of the grams at positions t, 0 <= t < m."""
        return np.searchsorted(self.keys, self.packed[t] // self.div)

    def _ranks(self, t: np.ndarray) -> np.ndarray:
        """gram << bits | t at positions t, the gram its key, or its id
        where the keys are too wide to carry the m positions' bits."""
        bits = (self.m - 1).bit_length()
        rank = self.at(t) if int(self.keys[-1]) >> (63 - bits) else self.packed[t] // self.div
        rank <<= bits
        rank |= t
        return rank

    @cached_property
    def _sorted(self) -> np.ndarray:
        """Every position's rank, ascending: the one positional sort."""
        ranks = self._ranks(np.arange(self.m))
        ranks.sort()
        return ranks

    @property
    def order(self) -> np.ndarray:
        """Positions sorted by (id, position)."""
        return self._sorted & ((1 << (self.m - 1).bit_length()) - 1)

    def occ_at(self, t: np.ndarray) -> np.ndarray:
        """``occ`` at positions t, searched in the positional sort."""
        rank = self._ranks(t)
        bits = (self.m - 1).bit_length()
        return self._sorted.searchsorted(rank) - self._sorted.searchsorted(rank >> bits << bits)

    @cached_property
    def occ(self) -> np.ndarray:
        """Earlier positions holding the same gram, per position."""
        occ = np.empty(self.m, dtype=np.int64)
        occ[self.order] = np.arange(self.m) - np.repeat(np.cumsum(self.counts) - self.counts,
                                                        self.counts)
        return occ

    @cached_property
    def heads(self) -> np.ndarray:
        """Positions 0..T-n-1 holding each gram: the gram at T-n precedes no symbol."""
        heads = self.counts.copy()
        heads[self.at(self.m - 1)] -= 1
        return heads


def walk(data: np.ndarray, r: int, n_max: int, error: type[Exception]):
    """Yield levels 0 (the empty gram at positions 0..T) to min(n_max, T).

    A sort after level n0 (0 at first, with its one gram) packs the c next
    digits after the level's ids, c as large as U*(r+1)^c <= 2**63 allows
    (U: the level's grams); ``error`` is raised where not even one digit
    fits. The deepest level's runs are read off the sorted keys, each
    shallower level's by merging the runs of the level below."""
    T = data.size
    top, base = min(n_max, T), r + 1
    digits = np.zeros(T + top + 1, dtype=np.int64)
    digits[:T] = data
    digits[:T] += 1
    level = Level(0, T + 1, np.array([T + 1]), np.zeros(1, dtype=np.int64),
                  np.zeros(T + 1, dtype=np.int64), 1)
    yield level
    while level.n < top:
        n0, m, c = level.n, level.m, 0
        while n0 + c < top and level.counts.size * base ** (c + 1) <= _KEYS:
            c += 1
        if not c:
            raise error(f"{n0 + 1}-grams of {T} symbols over r={r} exceed the int64 sort keys")
        packed = level.at(np.arange(m)) if n0 else np.zeros(m, dtype=np.int64)
        for j in range(n0, n0 + c):
            packed *= base
            packed += digits[j:j + m]
        key = np.sort(packed)
        starts = _runs(key)
        key, counts = key[starts], np.diff(starts, append=m)
        levels = []
        for n in range(n0 + c, n0, -1):
            if levels:  # equal shorter keys: their runs merge
                runs = _runs(key)
                key, counts = key[runs], np.add.reduceat(counts, runs)
            cut = key // base
            whole = key != cut * base  # a last digit 0 runs past the end
            levels.append(Level(n, T - n + 1, counts[whole], key[whole], packed,
                                base ** (n0 + c - n)))
            key = cut
        while levels:  # shallowest first, and none kept once yielded
            level = levels.pop()
            yield level


def _runs(key: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in the sorted key."""
    edge = np.empty(key.size, dtype=bool)
    edge[:1] = True
    np.not_equal(key[1:], key[:-1], out=edge[1:])
    return edge.nonzero()[0]
