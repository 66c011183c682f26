"""The n-gram walk against brute force over explicit gram tuples."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcmtune._ngrams import walk
from fcmtune.dependence import DependenceError
from fcmtune.fcm import FcmError


@st.composite
def sequences(draw):
    r = draw(st.integers(min_value=2, max_value=5))
    data = draw(st.lists(st.integers(min_value=0, max_value=r - 1), max_size=200))
    return np.array(data, dtype=np.int64), r, len(data)


@st.composite
def wide_sequences(draw):
    """Wide alphabets and deep levels, drawn from a few symbols so that deep
    grams repeat: (r+1)**n_max passes 2**63 past n_max = 27 at r = 4, 11 at
    r = 52 (10 digits fit, 11 do at r = 51) and 7 at r = 255, so the walk's
    later sorts pack digits after the ids of the level before."""
    r = draw(st.sampled_from([2, 3, 4, 5, 51, 52, 124, 255]))
    palette = draw(st.lists(st.integers(min_value=0, max_value=r - 1), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(palette) - 1), max_size=120))
    return (np.array([palette[i] for i in picks], dtype=np.int64), r,
            draw(st.integers(min_value=0, max_value=40)))


# 100 draws of 3 symbols: at the deepest level of each sort the keys are too
# wide to carry a position's bits beside them
_MIXED = np.random.default_rng(1).integers(0, 3, 100)


@given(st.one_of(sequences(), wide_sequences()))
@example((np.array([3, 200, 7])[_MIXED], 255, 40))
@example((np.array([3, 2, 0])[_MIXED], 4, 40))
@settings(max_examples=120, deadline=None)
def test_walk_matches_brute_force(case):
    data, r, n_max = case
    T = data.size
    values = data.tolist()
    levels = list(walk(data, r, n_max, FcmError))
    assert [level.n for level in levels] == list(range(min(n_max, T) + 1))
    for level in levels:
        n = level.n
        grams = [tuple(values[t:t + n]) for t in range(T - n + 1)]
        distinct = sorted(set(grams))
        rank = {g: i for i, g in enumerate(distinct)}
        assert level.m == len(grams)
        # ids rank the grams in lexicographic order, and so does the lookup
        # of the gram at a position
        ids = [rank[g] for g in grams]
        assert level.at(np.arange(level.m)).tolist() == ids
        assert level.ids.tolist() == ids
        assert level.order.tolist() == sorted(range(len(grams)), key=lambda t: (ids[t], t))
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
        assert level.occ_at(np.arange(level.m)[::-1]).tolist() == occ[::-1]


def test_walk_stops_at_the_sequence_length():
    levels = list(walk(np.array([0, 1, 1]), 2, 10, FcmError))
    assert [level.n for level in levels] == [0, 1, 2, 3]
    assert levels[-1].counts.tolist() == [1]


@pytest.mark.parametrize("error", [FcmError, DependenceError])
def test_walk_raises_the_callers_error_past_the_sort_key_range(error):
    # 1,024 distinct symbols of a 2**53-symbol alphabet: level 1's digits fit
    # (2**53 + 1 <= 2**63), level 2's after its 1,024 ids do not
    # (1024 * (2**53 + 1) > 2**63)
    levels = walk(np.arange(1024), 2 ** 53, 3, error)
    assert next(levels).n == 0
    assert next(levels).counts.size == 1024
    with pytest.raises(error, match="int64 sort keys"):
        next(levels)
