"""The n-gram walk against brute force over explicit gram tuples."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmtune._ngrams import walk
from fcmtune.dependence import DependenceError
from fcmtune.fcm import FcmError


@st.composite
def sequences(draw):
    r = draw(st.integers(min_value=2, max_value=5))
    data = draw(st.lists(st.integers(min_value=0, max_value=r - 1), max_size=200))
    return np.array(data, dtype=np.int64), r


@given(sequences())
@settings(max_examples=60, deadline=None)
def test_walk_matches_brute_force(case):
    data, r = case
    T = data.size
    values = data.tolist()
    levels = list(walk(data, r, T, FcmError))
    assert [level.n for level in levels] == list(range(T + 1))
    for level in levels:
        n = level.n
        grams = [tuple(values[t:t + n]) for t in range(T - n + 1)]
        distinct = sorted(set(grams))
        rank = {g: i for i, g in enumerate(distinct)}
        # ids rank the grams in lexicographic order
        assert level.ids.tolist() == [rank[g] for g in grams]
        tally = Counter(grams)
        assert level.counts.tolist() == [tally[g] for g in distinct]
        heads = Counter(grams[:T - n])  # the gram at T-n precedes no symbol
        assert level.heads.tolist() == [heads[g] for g in distinct]
        seen = Counter()
        occ = []
        for g in grams:
            occ.append(seen[g])
            seen[g] += 1
        assert level.occ.tolist() == occ


def test_walk_stops_at_the_sequence_length():
    levels = list(walk(np.array([0, 1, 1]), 2, 10, FcmError))
    assert [level.n for level in levels] == [0, 1, 2, 3]
    assert levels[-1].counts.tolist() == [1]


@pytest.mark.parametrize("error", [FcmError, DependenceError])
def test_walk_raises_the_callers_error_past_the_sort_key_range(error):
    # 1,024 distinct symbols of a 2**45-symbol alphabet: level 1 fits
    # (1 * 2**45 * 1024 = 2**55), level 2 does not (1024 * 2**45 * 1023)
    levels = walk(np.arange(1024), 2 ** 45, 3, error)
    assert next(levels).n == 0
    assert next(levels).counts.size == 1024
    with pytest.raises(error, match="int64 sort keys"):
        next(levels)
