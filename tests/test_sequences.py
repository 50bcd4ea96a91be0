import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensormp import (
    P_CAP,
    canonicalize,
    degree,
    enumerate_canonical,
    is_canonical,
    is_crossing,
)
from tensormp.claims import CLAIMS, crossing_by_quartic_scan
from tensormp.sequences import canonical_array

seqs = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=9).map(tuple)


def test_canonicalize_examples():
    assert canonicalize((3, 1, 3, 2)) == (1, 2, 1, 3)
    assert canonicalize((5, 5, 9)) == (1, 1, 2)
    assert canonicalize((1,)) == (1,)
    assert canonicalize((7, 7, 7, 7)) == (1, 1, 1, 1)


def test_canonicalize_rejects_empty():
    with pytest.raises(ValueError):
        canonicalize(())


@given(seqs)
def test_canonicalize_idempotent(a):
    c = canonicalize(a)
    assert canonicalize(c) == c
    assert is_canonical(c)
    assert c[0] == 1


@given(seqs, st.randoms())
def test_canonicalize_relabel_invariant(a, rnd):
    values = sorted(set(a))
    shuffled = list(values)
    rnd.shuffle(shuffled)
    relabel = dict(zip(values, shuffled))
    b = tuple(relabel[v] for v in a)
    assert canonicalize(b) == canonicalize(a)


def test_enumeration_counts():
    # Bell(p) sequences, S(p, s) of them with s values, each canonical, sorted
    assert CLAIMS["canonical counts"].run(8) is None
    assert CLAIMS["canonical order"].run(8) is None


def test_enumeration_p3_explicit():
    assert enumerate_canonical(3) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (1, 2, 2),
        (1, 2, 3),
    ]


def test_enumeration_s_filter_partitions_whole():
    for p in range(1, 7):
        union = [a for s in range(1, p + 1) for a in enumerate_canonical(p, s)]
        assert sorted(union) == enumerate_canonical(p)


def test_enumeration_cache_cannot_be_corrupted():
    # each length is built once per process, as one array; callers get their own lists
    for args in ((6,), (6, 3)):
        got = enumerate_canonical(*args)
        want = list(got)
        got[0] = (7,)
        got.append((9,))
        del got[1]
        assert enumerate_canonical(*args) == want
    for p in range(1, 9):
        full = enumerate_canonical(p)
        for s in range(1, p + 1):
            assert enumerate_canonical(p, s) == [a for a in full if max(a) == s]
        assert np.array_equal(canonical_array(p), np.array(full) - 1)
    cols = canonical_array(5)
    assert cols.dtype == np.int8 and not cols.flags.writeable
    with pytest.raises(ValueError):
        cols[0, 0] = 3
    with pytest.raises(ValueError):
        cols += 1
    assert canonical_array(5)[0].tolist() == [0] * 5


def test_enumeration_equals_fixed_points_of_canonicalize():
    # an oracle independent of the level-by-level build: every sequence over
    # 1..p in lexicographic order, kept when canonicalize leaves it unchanged
    for p in range(1, 7):
        every = itertools.product(range(1, p + 1), repeat=p)
        assert [a for a in every if canonicalize(a) == a] == enumerate_canonical(p)


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_canonical(0)
    with pytest.raises(ValueError):
        enumerate_canonical(P_CAP + 1)
    for p in (0, P_CAP + 1):
        with pytest.raises(ValueError):
            canonical_array(p)
    assert enumerate_canonical(3, 0) == []
    assert enumerate_canonical(3, 4) == []


def test_crossing_examples():
    assert is_crossing((1, 2, 1, 2))
    assert not is_crossing((1, 2, 2, 1))
    assert not is_crossing((1, 1))
    assert is_crossing((1, 2, 3, 1, 2))
    assert not is_crossing((1, 2, 3, 2, 1))


def test_crossing_matches_quartic_scan():
    assert CLAIMS["crossing scan agreement"].run(8) is None


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=12).map(tuple))
def test_crossing_matches_quartic_scan_beyond_enumeration(a):
    # the claim enumerates canonical sequences only up to length 8
    assert is_crossing(a) == crossing_by_quartic_scan(a)


def test_degree():
    assert degree((1, 2, 1), 1) == 2
    assert degree((1, 2, 1), 2) == 1
    assert degree((1, 2, 1), 3) == 0
    assert type(degree((1, 2, 1), 1)) is int
    rows = np.array([[0, 1, 0], [0, 0, 0], [0, 1, 2]])
    assert degree(rows, 0).tolist() == [2, 3, 1]
    assert degree(rows, 3).tolist() == [0, 0, 0]
    assert CLAIMS["degree sums"].run(8) is None

