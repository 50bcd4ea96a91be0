"""Walk-graph classification and the tree-partner bijection.

The brute-force checks of the constructive routines against the full
canonical enumeration are claims in ``tensormp.claims``; the acceptance
gate runs the partner, dichotomy and paired-partner claims.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tensormp as t
from tensormp import GraphClass, sequences
from tensormp.claims import CLAIMS, brute_partner_search


def test_build_graph_shape():
    g = t.build_graph((1, 2, 1), (1, 2, 1))
    assert g.p == 3
    assert sum(g.down.values()) == 3
    assert sum(g.up.values()) == 3
    with pytest.raises(ValueError):
        t.build_graph((1, 2), (1, 2, 3))


def test_classify_examples():
    assert t.classify(t.build_graph((1, 2, 1, 2), (1, 2, 2, 1))) is GraphClass.PAIRED
    assert t.classify(t.build_graph((1, 2, 2), (1, 2, 3))) is GraphClass.SINGLE
    assert t.classify(t.build_graph((1, 2, 1, 2), (1, 2, 1, 2))) is GraphClass.OTHER


def test_is_delta1_examples():
    assert t.is_delta1((1, 2, 1), (1, 2, 2))
    assert t.is_delta1((1,), (1,))
    assert not t.is_delta1((1, 1), (1, 1))


def _glued_tree_by_union_find(i_seq, alpha) -> bool:
    # every (alpha-value, i-value) pair carries one down and one up edge,
    # and the p glued edges join the alpha and i vertices without a cycle
    # into one component
    p = len(alpha)
    down = Counter((alpha[u], i_seq[u]) for u in range(p))
    up = Counter((alpha[(u + 1) % p], i_seq[u]) for u in range(p))
    if down != up or set(down.values()) != {1}:
        return False
    root = {}

    def find(x):
        while root.setdefault(x, x) != x:
            x = root[x]
        return x

    for a, v in down:
        ra, rv = find(("alpha", a)), find(("i", v))
        if ra == rv:
            return False
        root[ra] = rv
    return len(down) == p and len({find(x) for x in list(root)}) == 1


walk_pairs = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=8
).map(lambda pairs: tuple(zip(*pairs)))


@given(walk_pairs)
def test_is_delta1_matches_union_find_tree(pair):
    # arbitrary pairs, outside the p+1-s-value candidates of the uniqueness claim
    i_seq, alpha = pair
    assert t.is_delta1(i_seq, alpha) == _glued_tree_by_union_find(i_seq, alpha)


def _counter_graph(i_seq, alpha):
    """build_graph's edge counts by two Counters, the reference."""
    p = len(alpha)
    down = Counter((alpha[u], i_seq[u]) for u in range(p))
    up = Counter((alpha[(u + 1) % p], i_seq[u]) for u in range(p))
    return dict(down), dict(up)


@given(walk_pairs)
def test_build_graph_matches_counter_reference(pair):
    i_seq, alpha = pair
    g = t.build_graph(i_seq, alpha)
    assert (g.down, g.up) == _counter_graph(i_seq, alpha)
    assert (g.alpha, g.i_seq) == (alpha, i_seq)


def _cols(seqs):
    return np.array(seqs) - 1


def test_classify_rows_matches_classify():
    for p in range(1, 7):
        seqs = t.enumerate_canonical(p)
        cols = _cols(seqs)
        for a in seqs:
            want = [t.classify(t.build_graph(i, a)) for i in seqs]
            assert list(t.classify_rows(a, cols)) == want, a


def test_brute_partner_search_matches_is_delta1():
    # every candidate set of the tree partner uniqueness claim
    for p in range(1, 8):
        cols = sequences.canonical_array(p)
        for a in t.enumerate_canonical(p):
            want = [i for i in t.enumerate_canonical(p, p + 1 - max(a)) if t.is_delta1(i, a)]
            assert brute_partner_search(a, cols) == want, a


def test_delta1_rows_needs_p_plus_1_values():
    # i = (1,2,2,1) walks the 4-cycle of alpha = (1,2,1,2) there and back: every
    # key carries one down and one up edge, but r + s = 4, so it is no partner
    a = (1, 2, 1, 2)
    ((_, down, up),) = t.edge_counts(a, _cols([(1, 2, 2, 1)]))
    assert (down == up).all() and down.max() == 1
    assert not t.is_delta1((1, 2, 2, 1), a)


canonical_pairs = st.integers(1, 8).flatmap(
    lambda p: st.tuples(*[st.lists(st.integers(1, p), min_size=p, max_size=p)] * 2)
).map(lambda pair: tuple(t.canonicalize(seq) for seq in pair))


@given(canonical_pairs)
def test_edge_counts_match_build_graph(pair):
    i_seq, alpha = pair
    p = len(alpha)
    ((rows, down, up),) = list(t.edge_counts(alpha, _cols([i_seq])))
    assert rows == slice(0, 1) and down.shape == up.shape == (1, max(alpha) * p)

    def as_dict(counts):
        return {(key // p + 1, key % p + 1): int(c) for key, c in enumerate(counts[0]) if c}

    g = t.build_graph(i_seq, alpha)
    assert (as_dict(down), as_dict(up)) == (g.down, g.up)


def test_row_functions_across_blocks():
    # 360,000 rows of length 3 take two (s = 1) to four (s = 3) blocks of
    # about 2^20 counts
    seqs = t.enumerate_canonical(3)
    cols = np.tile(_cols(seqs), (72_000, 1))
    for a in ((1, 1, 1), (1, 2, 3)):
        blocks = [rows for rows, _, _ in t.edge_counts(a, cols)]
        assert len(blocks) > 1 and blocks[-1].stop == len(cols)
        assert (t.classify_rows(a, cols) == np.tile(t.classify_rows(a, _cols(seqs)), 72_000)).all()


def test_row_functions_reject_wrong_length():
    with pytest.raises(ValueError):
        t.classify_rows((1, 2, 1), _cols([(1, 2)]))


def test_partner_known_values():
    assert t.delta1_partner((1,)) == (1,)
    assert t.delta1_partner((1, 1)) == (1, 2)
    assert t.delta1_partner((1, 2, 2)) == (1, 2, 1)
    assert t.delta1_partner((1, 2, 1)) == (1, 1, 2)
    assert t.delta1_partner((1, 2, 2, 2)) == (1, 2, 3, 1)
    assert t.delta1_partner((1, 2, 1, 2)) is None


def test_partner_exists_iff_non_crossing():
    # the partner counts its cycles and never asks is_crossing; the claims stop at p = 7
    for p in range(1, 10):
        for a in t.enumerate_canonical(p):
            assert (t.delta1_partner(a) is None) == t.is_crossing(a), a


def test_partner_accepts_non_canonical_input():
    # relabeling alpha must not change the partner
    assert t.delta1_partner((4, 7, 7)) == t.delta1_partner((1, 2, 2))


def test_partner_graph_is_tree_with_balanced_degrees():
    # max(i) = p + 1 - s and the tree property belong to the uniqueness claim (c02)
    assert CLAIMS["tree partner diagnostics"].run(7) is None


@pytest.mark.parametrize("p", [8, 9])
def test_partner_beyond_brute_force_range(p):
    # the uniqueness claim searches every candidate only up to p = 7
    noncrossing = [a for a in t.enumerate_canonical(p) if not t.is_crossing(a)]
    assert len(noncrossing) == math.comb(2 * p, p) // (p + 1)
    for a in noncrossing:
        i = t.delta1_partner(a)
        assert t.is_canonical(i) and max(i) == p + 1 - max(a) and t.is_delta1(i, a), a


def test_paired_partners_known_values():
    assert t.paired_partners((1, 2, 2), 1) == [(1, 1, 1)]
    assert t.paired_partners((1, 2, 2), 2) == [(1, 2, 1)]
    assert t.paired_partners((1, 2, 2), 3) == []


def test_paired_partners_rejects_bad_input():
    with pytest.raises(ValueError):
        t.paired_partners((1, 2, 1, 2), 1)
    with pytest.raises(ValueError):
        t.paired_partners((1, 2, 2), 0)
    with pytest.raises(ValueError):
        t.paired_partners((1, 2, 2), 4)


def test_consecutive_violation_report():
    g = t.build_graph((1, 2, 1), (1, 2, 1))
    v = t.count_consecutive_violations(g)
    assert v is not None
    assert v.direction == "down"
    assert v.edge == (1, 1)
    assert v.positions == (1, 3)
    assert v.distance == 2


def test_every_other_graph_has_a_consecutive_pair():
    # the diagnostic's own claim, over every Other-class walk graph with p <= 6
    others = 0
    for p in range(1, 7):
        seqs, cols = t.enumerate_canonical(p), sequences.canonical_array(p)
        for a in seqs:
            for j in np.flatnonzero(t.classify_rows(a, cols) == GraphClass.OTHER):
                others += 1
                assert t.count_consecutive_violations(t.build_graph(seqs[j], a)) is not None
    assert others == 323


def test_dump_graph_format():
    g = t.build_graph((1, 2, 1), (1, 2, 1))
    line = t.dump_graph(g)
    assert line == (
        "alpha=(1, 2, 1) i=(1, 2, 1) class=single "
        "edges=(1,1):down=2,up=1 (1,2):down=0,up=1 (2,1):down=0,up=1 (2,2):down=1,up=0"
    )
